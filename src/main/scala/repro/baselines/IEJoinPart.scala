package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core._

/** Quantile-based partitioning of distributed IEJoin (Khayyat et al.,
  * §6.6 / Appendix A.1): both inputs are range-partitioned on A1 into
  * blocks of ~`sizePerBlock` rows; every pair of non-empty blocks whose
  * A1 min/max come within ε1 becomes a join task, and tasks are assigned
  * to the w workers. A block that belongs to multiple joinable pairs is
  * duplicated once per task — the source of IEJoin's high input
  * duplication.
  *
  * The statistics are CS_IO's: block boundaries are quantiles of the
  * input sample's A1 values, and the blocks' exact counts and A1 boxes
  * come from `CsIo.rangeStats`. The result is a `MatrixCover` whose rows
  * are S's blocks, columns T's blocks, and regions single-cell tasks.
  */
object IEJoinPart {

  /** Build the partitioning for a given `sizePerBlock`, with one Spark
    * job.
    */
  def build(s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
            w: Int, sizePerBlock: Int, sample: JoinSample): MatrixCover = {
    // One-element bounds at the sample's A1 quantiles: the blocks are A1 ranges.
    def blocks(pts: Array[WPoint], n: Long): Array[Array[Double]] =
      CsIo.quantileBounds(pts.map(p => WPoint(Array(p.x(0)), p.weight)),
        math.max(1, math.ceil(n.toDouble / sizePerBlock).toInt))
    val sBounds = blocks(sample.sPoints, sample.sCount)
    val tBounds = blocks(sample.tPoints, sample.tCount)
    val nT = tBounds.length + 1
    val (sStats, tStats) =
      CsIo.rangeStats(s, t, dims.take(1), sBounds, sBounds.length + 1, tBounds, nT)
    val outW = MatrixCover.cellOutput(sample.pairs, sBounds, tBounds, nT)
    val tasks = CsIo.boxesJoinable(sStats, tStats, BandSpec(band.eps.take(1))).zipWithIndex
      .flatMap { case (cols, i) => cols.map(i.toLong * nT + _) }
    MatrixCover(sBounds, tBounds, nT, tasks.zipWithIndex.toMap,
      tasks.map(c => (sStats((c / nT).toInt).count + tStats((c % nT).toInt).count).toDouble),
      tasks.map(outW.getOrElse(_, 0.0)), w)
  }
}
