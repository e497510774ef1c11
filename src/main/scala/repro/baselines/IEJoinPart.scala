package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core._

/** Quantile-based partitioning of distributed IEJoin (Khayyat et al.,
  * §6.6 / Appendix A.1): both inputs are sorted on A1 and
  * range-partitioned into blocks of ~`sizePerBlock` rows via approximate
  * quantiles; every pair of blocks whose A1 ranges are within ε1 becomes
  * a join task, and tasks are assigned to the w workers. A block that
  * belongs to multiple joinable pairs is duplicated once per task —
  * the source of IEJoin's high input duplication.
  *
  * The result is a `MatrixCover` whose rows are S's blocks, columns T's
  * blocks, and regions single-cell tasks.
  */
object IEJoinPart {

  /** Build the partitioning for a given `sizePerBlock`. Block boundaries
    * come from `approxQuantile` over the full input (the "approximate
    * quantiles" of the original system). Returns the partitioning and
    * its optimization time.
    */
  def build(s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
            w: Int, sizePerBlock: Int, sample: JoinSample): (MatrixCover, Double) = {
    val t0 = System.nanoTime()
    val a1 = dims.head

    // One-element bounds: the blocks are A1 ranges.
    def bounds(df: DataFrame, n: Long): Array[Array[Double]] = {
      val nBlocks = math.max(1, math.ceil(n.toDouble / sizePerBlock).toInt)
      if (nBlocks == 1) Array.empty
      else {
        val probs = (1 until nBlocks).map(_.toDouble / nBlocks).toArray
        df.stat.approxQuantile(a1, probs, 0.001).map(Array(_))
      }
    }
    val sBounds = bounds(s, sample.sCount)
    val tBounds = bounds(t, sample.tCount)
    val nS = sBounds.length + 1
    val nT = tBounds.length + 1
    val (sStats, tStats) = CsIo.rangeStats(s, t, Seq(a1), sBounds, nS, tBounds, nT)
    val sCnt = sStats.map(_.count)
    val tCnt = tStats.map(_.count)

    // A1 value range of each block, bounded by the quantile boundaries.
    def range(bs: Array[Array[Double]], i: Int): (Double, Double) = (
      if (i == 0) Double.NegativeInfinity else bs(i - 1)(0),
      if (i == bs.length) Double.PositiveInfinity else bs(i)(0))

    val e1 = band.eps(0)
    val outW = MatrixCover.cellOutput(sample.pairs, sBounds, tBounds, nT)
    val tasks = for {
      i <- 0 until nS; j <- 0 until nT
      (sLo, sHi) = range(sBounds, i)
      (tLo, tHi) = range(tBounds, j)
      if sLo - e1 <= tHi && tLo - e1 <= sHi && sCnt(i) > 0 && tCnt(j) > 0
    } yield i.toLong * nT + j
    val part = MatrixCover(sBounds, tBounds, nT, tasks.zipWithIndex.toMap,
      tasks.map(c => (sCnt((c / nT).toInt) + tCnt((c % nT).toInt)).toDouble).toArray,
      tasks.map(outW.getOrElse(_, 0.0)).toArray, w)
    (part, (System.nanoTime() - t0) / 1e6)
  }
}
