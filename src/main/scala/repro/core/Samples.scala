package repro.core

import org.apache.spark.sql.DataFrame
import scala.util.Random

/** A sampled input tuple: its join-attribute point and the number of
  * full-data tuples it represents.
  */
final case class WPoint(x: Array[Double], weight: Double) extends Serializable

/** A sampled output pair (s, t) with the number of full-output pairs it
  * represents.
  */
final case class WPair(s: Array[Double], t: Array[Double], weight: Double) extends Serializable

/** Input and output samples for the optimizers (Algorithm 1, lines 1-2).
  *
  * Output sampling substitutes Vitorovic et al.'s join sampler with a
  * band-join of the two *input* samples: if kS points are drawn from S
  * and kT from T, each joining sample pair represents
  * `(|S|·|T|)/(kS·kT)` output pairs — an unbiased estimator of both the
  * output cardinality and its spatial distribution (see DESIGN.md §5).
  */
final case class JoinSample(
    sPoints: Array[WPoint],
    tPoints: Array[WPoint],
    pairs: Array[WPair],
    sCount: Long,
    tCount: Long,
) {
  /** Estimated |S ⋈_B T| implied by the output sample. */
  def outputEstimate: Double = pairs.iterator.map(_.weight).sum
}

object Samples {

  /** Extract join-attribute points `dims` from `df` via reservoir-free
    * uniform sampling (exact fraction with a deterministic seed), capped
    * at `k` points. Returns the points and the exact input count.
    */
  def samplePoints(df: DataFrame, dims: Seq[String], k: Int, seed: Long): (Array[WPoint], Long) = {
    val total = df.count()
    if (total == 0) return (Array.empty, 0L)
    val frac = math.min(1.0, (k.toDouble * 1.2) / total)
    val rows = df.select(dims.map(org.apache.spark.sql.functions.col): _*)
      .sample(withReplacement = false, frac, seed)
      .limit(k)
      .collect()
    val pts = rows.map { r =>
      Array.tabulate(dims.length)(i => r.get(i) match {
        case d: java.lang.Double  => d.doubleValue
        case l: java.lang.Long    => l.doubleValue
        case i2: java.lang.Integer => i2.doubleValue
        case f: java.lang.Float   => f.doubleValue
        case other => other.toString.toDouble
      })
    }
    val w = if (pts.isEmpty) 0.0 else total.toDouble / pts.length
    (pts.map(WPoint(_, w)), total)
  }

  /** Band-join the two input samples and weight-scale the result into an
    * output sample of at most `kOut` pairs.
    */
  def samplePairs(
      sPts: Array[WPoint], sCount: Long,
      tPts: Array[WPoint], tCount: Long,
      band: BandSpec, kOut: Int, seed: Long): Array[WPair] = {
    if (sPts.isEmpty || tPts.isEmpty) return Array.empty
    val raw = LocalJoin.join(sPts.map(_.x), tPts.map(_.x), band)
    val pairWeight = (sCount.toDouble / sPts.length) * (tCount.toDouble / tPts.length)
    val all = raw.map { case (si, ti) => WPair(sPts(si).x, tPts(ti).x, pairWeight) }
    if (all.length <= kOut) all
    else {
      // Subsample pairs, scaling weight up so the total stays unbiased.
      val rnd = new Random(seed)
      val picked = rnd.shuffle(all.indices.toVector).take(kOut).toArray
      val scale = all.length.toDouble / kOut
      picked.map(i => all(i).copy(weight = all(i).weight * scale))
    }
  }

  /** Smallest and largest per-side point sample the output sample is
    * drawn from.
    */
  private val PairSourceMin = 8000
  private val PairSourceCap = 64000

  /** Draw the full (input, output) sample set used by an optimizer.
    *
    * The output sample is produced by band-joining *dedicated* larger
    * point samples (at least `PairSourceMin` per side): the pair yield of
    * a sample join scales with the product of the side sizes, so the
    * optimizer-sized input sample alone gives too coarse an output sample
    * (each sampled pair would represent too many output tuples to balance
    * load with).
    */
  def draw(
      s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
      kIn: Int, kOut: Int, seed: Long = 42): JoinSample = {
    val (sp, sc) = samplePoints(s, dims, kIn / 2, seed)
    val (tp, tc) = samplePoints(t, dims, kIn / 2, seed + 1)
    // Pair yield scales with kp²/(|S||T|): double the pair-source sample
    // until the output sample is fine enough to balance load with (or the
    // inputs/cap are exhausted).
    var kp = math.max(PairSourceMin, kIn / 2)
    var pairs = Array.empty[WPair]
    var done = false
    while (!done) {
      val (psp, ptp) =
        if (kp <= kIn / 2) (sp, tp)
        else (samplePoints(s, dims, kp, seed + 3)._1,
          samplePoints(t, dims, kp, seed + 4)._1)
      pairs = samplePairs(psp, sc, ptp, tc, band, kOut, seed + 2)
      done = pairs.length >= kOut / 4 || kp >= PairSourceCap ||
        kp >= math.min(sc, tc)
      if (!done) kp *= 2
    }
    JoinSample(sp, tp, pairs, sc, tc)
  }
}
