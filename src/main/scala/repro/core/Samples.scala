package repro.core

import java.util.{Arrays, SplittableRandom}
import org.apache.spark.sql.DataFrame
import scala.collection.mutable.ArrayBuilder
import scala.util.Random
import scala.util.hashing.byteswap64

/** A sampled input tuple: its join-attribute point and the number of
  * full-data tuples it represents.
  */
final case class WPoint(x: Array[Double], weight: Double) extends Serializable

/** A sampled output pair (s, t) with the number of full-output pairs it
  * represents.
  */
final case class WPair(s: Array[Double], t: Array[Double], weight: Double) extends Serializable

/** Input and output samples for the optimizers (Algorithm 1, lines 1-2),
  * the exact input sizes, and the exact bounding box `region` of S ∪ T
  * (see `RecPart.exactBounds`).
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
    region: Region,
) {
  /** Estimated |S ⋈_B T| implied by the output sample. */
  def outputEstimate: Double = pairs.iterator.map(_.weight).sum
}

object Samples {

  /** Uniform sample without replacement of at most `k` join-attribute
    * points `dims` of `df`, weighted to sum to the input size, and the
    * exact input count, from one Spark job.
    */
  def samplePoints(df: DataFrame, dims: Seq[String], k: Int, seed: Long): (Array[WPoint], Long) = {
    val side = scan(Seq(df), dims, k, seed)._1.head
    (side.prefix(k), side.count)
  }

  /** Band-join the two input samples and weight-scale the result into an
    * output sample of at most `kOut` pairs. The subsample depends only on
    * the matching (s-index, t-index) set, not on the kernel's order.
    */
  def samplePairs(
      sPts: Array[WPoint], sCount: Long,
      tPts: Array[WPoint], tCount: Long,
      band: BandSpec, kOut: Int, seed: Long): Array[WPair] = {
    if (sPts.isEmpty || tPts.isEmpty) return Array.empty
    val found = ArrayBuilder.make[Long]
    LocalJoin.forEachMatch(sPts.map(_.x), tPts.map(_.x), band)((si, ti) =>
      found += (si.toLong << 32) | ti)
    val raw = found.result()
    java.util.Arrays.sort(raw)
    val pairWeight = (sCount.toDouble / sPts.length) * (tCount.toDouble / tPts.length)
    val k = math.min(kOut, raw.length)
    if (k < raw.length) {
      // Partial Fisher–Yates: raw(0 until k) becomes a uniform subsample.
      val rnd = new Random(seed)
      var i = 0
      while (i < k) {
        val j = i + rnd.nextInt(raw.length - i)
        val x = raw(i); raw(i) = raw(j); raw(j) = x
        i += 1
      }
    }
    // Subsampling scales each pair's weight up so the total stays unbiased.
    val w = if (k < raw.length) pairWeight * (raw.length.toDouble / k) else pairWeight
    Array.tabulate(k)(i => WPair(sPts((raw(i) >>> 32).toInt).x, tPts(raw(i).toInt).x, w))
  }

  /** Smallest and largest per-side point sample the output sample is
    * drawn from.
    */
  private val PairSourceMin = 8000
  private val PairSourceCap = 64000

  /** Draw the full (input, output) sample set used by an optimizer, and
    * the exact bounding box of S ∪ T, from one Spark job.
    *
    * The output sample is produced by band-joining *dedicated* larger
    * point samples (at least `PairSourceMin` per side): the pair yield of
    * a sample join scales with the product of the side sizes, so the
    * optimizer-sized input sample alone gives too coarse an output sample
    * (each sampled pair would represent too many output tuples to balance
    * load with). Every sample is a prefix of one random order per side
    * (see `scan`), so the input sample is a prefix of each pair-source
    * sample.
    */
  def draw(
      s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
      kIn: Int, kOut: Int, seed: Long = 42): JoinSample = {
    val cap = math.max(PairSourceCap, kIn / 2)
    val (ranked, region) = scan(Seq(s, t), dims, cap, seed)
    val (sr, tr) = (ranked(0), ranked(1))
    val (sc, tc) = (sr.count, tr.count)
    // Pair yield scales with kp²/(|S||T|): double the pair-source sample
    // until the output sample is fine enough to balance load with (or the
    // inputs/cap are exhausted).
    var kp = math.max(PairSourceMin, kIn / 2)
    var pairs = Array.empty[WPair]
    var done = false
    while (!done) {
      pairs = samplePairs(sr.prefix(kp), sc, tr.prefix(kp), tc, band, kOut, seed + 2)
      done = pairs.length >= kOut / 4 || kp >= cap || kp >= math.min(sc, tc)
      if (!done) kp = math.min(2 * kp, cap)
    }
    JoinSample(sr.prefix(kIn / 2), tr.prefix(kIn / 2), pairs, sc, tc, region)
  }

  /** One input's exact row count and up to `cap` of its points in a
    * uniformly random order: every prefix is a uniform sample without
    * replacement.
    */
  private[core] final case class Ranked(points: Array[Array[Double]], count: Long) {
    /** The first `k` points, each weighted `count / k`. */
    def prefix(k: Int): Array[WPoint] = {
      val n = math.min(k, points.length)
      val w = count.toDouble / n
      Array.tabulate(n)(i => WPoint(points(i), w))
    }
  }

  /** One partition of one input: its row count, a uniformly random
    * ordered sample of at most `cap` of its points, flattened: point k is
    * `points(k·d until (k+1)·d)`, and its bounding box (see `Region.widen`).
    */
  private final case class Kept(side: Int, count: Long, points: Array[Double],
                                bounds: Array[Double])

  /** The generator of one input's partition (`part` = -1: the driver's). */
  private def rng(seed: Long, side: Int, part: Int): SplittableRandom =
    new SplittableRandom(byteswap64(byteswap64(seed) + 2L * part + side))

  /** Rank the inputs `dfs` in one Spark job, and bound them. Each
    * partition counts its rows, folds its per-dimension min / max, and
    * keeps a reservoir of at most `cap` points, shuffled, using a
    * generator seeded by (seed, input, partition). The driver interleaves
    * an input's partitions, drawing the next point from each with
    * probability proportional to its rows not yet drawn. Every prefix of
    * the result is then a uniform sample of the input without replacement.
    * The bounds follow SQL's `min` / `max` over all inputs (see
    * `RecPart.exactBounds`); with no rows they are the origin.
    */
  private[core] def scan(dfs: Seq[DataFrame], dims: Seq[String], cap: Int,
                         seed: Long): (Seq[Ranked], Region) = {
    val d = dims.length
    val parts = dfs.zipWithIndex.map { case (df, side) =>
      val (in, cols) = BandJoinExec.rows(df, dims)
      in.mapPartitionsWithIndex { (part, rows) =>
        val rnd = rng(seed, side, part)
        var kept = new Array[Double](d * math.min(cap, 1024))
        val bounds = Region.noBounds(d)
        var n = 0
        var count = 0L
        rows.foreach { r =>
          cols.id(r) // rejects a null id
          count += 1
          val slot =
            if (n < cap) n
            else if (cap == 0) -1
            else { val j = rnd.nextLong(count); if (j < cap) j.toInt else -1 }
          if (slot == n) {
            if (kept.length < (n + 1) * d)
              kept = Arrays.copyOf(kept, d * math.min(cap, 2 * (n + 1)))
            n += 1
          }
          var i = 0
          while (i < d) {
            val x = cols.attribute(r, i)
            Region.widen(bounds, i, x, x)
            if (slot >= 0) kept(slot * d + i) = x
            i += 1
          }
        }
        val tmp = new Array[Double](d)
        for (i <- (0 until n).reverse) {
          val j = rnd.nextInt(i + 1)
          System.arraycopy(kept, i * d, tmp, 0, d)
          System.arraycopy(kept, j * d, kept, i * d, d)
          System.arraycopy(tmp, 0, kept, j * d, d)
        }
        Iterator(Kept(side, count, Arrays.copyOf(kept, n * d), bounds))
      }
    }
    val kept = dfs.head.sparkSession.sparkContext.union(parts).collect()
    val bounds = Region.noBounds(d)
    for (k <- kept; i <- 0 until d) Region.widen(bounds, i, k.bounds(i), k.bounds(d + i))
    val region =
      if (kept.forall(_.count == 0)) Region(new Array(d), new Array(d))
      else Region(bounds.take(d), bounds.drop(d))
    val ranked = dfs.indices.map { side =>
      val ps = kept.filter(_.side == side)
      val left = ps.map(_.count)
      val taken = new Array[Int](ps.length)
      val rnd = rng(seed, side, -1)
      var total = left.sum
      val out = Array.fill(math.min(cap.toLong, total).toInt) {
        var r = rnd.nextLong(total)
        var p = 0
        while (r >= left(p)) { r -= left(p); p += 1 }
        left(p) -= 1; total -= 1
        taken(p) += 1
        Arrays.copyOfRange(ps(p).points, (taken(p) - 1) * d, taken(p) * d)
      }
      Ranked(out, ps.map(_.count).sum)
    }
    (ranked, region)
  }
}
