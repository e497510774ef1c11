package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core._

/** Band-width calibration (DESIGN.md §3): the paper's inputs are 2000×
  * larger than ours and output cardinality scales with |S|·|T|, so we
  * cannot keep both the paper's band widths and its output/input
  * *ratios*. The ratios are what drive the load tradeoff (β2·Im vs
  * β3·Om), so each experiment picks the band width whose estimated
  * output/input ratio matches the paper's, via sample-based search.
  */
object Calibrate {

  /** Input sample size per side for the band-width searches. */
  private val SampleSize = 4000

  /** Estimated |S ⋈ T| for band `m · base`, from input samples. */
  def outputEstimate(sPts: Array[WPoint], sCount: Long,
                     tPts: Array[WPoint], tCount: Long,
                     base: Array[Double], m: Double): Double = {
    val band = BandSpec(base.map(_ * m))
    val cnt = LocalJoin.countMatches(sPts.map(_.x), tPts.map(_.x), band)
    cnt.toDouble * (sCount.toDouble / sPts.length) * (tCount.toDouble / tPts.length)
  }

  /** Find multiplier m so that output(m·base)/(|S|+|T|) ≈ targetRatio.
    * Output is monotone in m, so geometric bisection converges.
    */
  def epsForRatio(s: DataFrame, t: DataFrame, dims: Seq[String],
                  base: Array[Double], targetRatio: Double): BandSpec = {
    require(targetRatio > 0)
    val (sp, sc) = Samples.samplePoints(s, dims, SampleSize, 11)
    val (tp, tc) = Samples.samplePoints(t, dims, SampleSize, 12)
    val target = targetRatio * (sc + tc)
    var lo = 1e-12
    var hi = 1e-12
    // grow hi until output exceeds target (or the Cartesian limit)
    var est = 0.0
    var guard = 0
    do {
      hi *= 8
      est = outputEstimate(sp, sc, tp, tc, base, hi)
      guard += 1
    } while (est < target && guard < 30)
    var i = 0
    while (i < 40 && hi / lo > 1.0005) {
      val mid = math.sqrt(lo * hi)
      if (outputEstimate(sp, sc, tp, tc, base, mid) < target) lo = mid else hi = mid
      i += 1
    }
    BandSpec(base.map(_ * hi))
  }

  /** For the 1D experiments: pick the lattice pitch δ so that quantizing
    * Pareto(z) values to multiples of δ gives an *equi-join* (ε = 0)
    * output/input ratio ≈ targetRatio — the paper's pareto-1.5 1D data
    * behaves this way (band width 0 produces 2430M pairs from 400M
    * inputs). Band widths δ, 2δ, 3δ then mirror the paper's 1e-5 steps.
    */
  def quantizeForEquiRatio(spark: org.apache.spark.sql.SparkSession,
                           z: Double, rowsPerInput: Long, targetRatio: Double): Double = {
    import repro.data.BandSynth
    val s = BandSynth.pareto(spark, rowsPerInput, z, 1, 13)
    val t = BandSynth.pareto(spark, rowsPerInput, z, 1, 113)
    val (sp, sc) = Samples.samplePoints(s, Seq("a1"), SampleSize, 14)
    val (tp, tc) = Samples.samplePoints(t, Seq("a1"), SampleSize, 15)
    val target = targetRatio * (sc + tc)
    def est(q: Double): Double = {
      val qs = sp.map(p => Array(math.round(p.x(0) / q) * q))
      val qt = tp.map(p => Array(math.round(p.x(0) / q) * q))
      LocalJoin.countMatches(qs, qt, BandSpec(Array(0.0))).toDouble *
        (sc.toDouble / sp.length) * (tc.toDouble / tp.length)
    }
    var lo = 1e-9; var hi = 1.0
    var i = 0
    while (i < 40 && hi / lo > 1.001) {
      val mid = math.sqrt(lo * hi)
      if (est(mid) < target) lo = mid else hi = mid
      i += 1
    }
    hi
  }
}
