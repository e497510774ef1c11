package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
import scala.collection.mutable

/** Exact quality measures of a join partitioning (§2):
  *
  *  - `i`  — total input incl. duplicates, `I = Σ_x |h(x)|`
  *  - `im` / `om` — input / output assigned to the most loaded worker
  *  - `lm` — max worker load `max_w β2·I_w + β3·O_w`
  *  - `dupOverhead`  — `(I - (|S|+|T|)) / (|S|+|T|)`  (0 is the lower bound)
  *  - `loadOverhead` — `(Lm - L0) / L0`               (0 is the lower bound)
  */
final case class PartMetrics(
    sCount: Long, tCount: Long, outCount: Long,
    i: Long, im: Long, om: Long,
    lm: Double, l0: Double,
    dupOverhead: Double, loadOverhead: Double,
    perWorkerInput: Array[Long], perWorkerOutput: Array[Long]) {
  def inputLowerBound: Long = sCount + tCount
}

object Metrics {

  /** Compute exact metrics for `part` over inputs (s, t) and the join's
    * output `pairs` (partitioning-independent; compute once per config
    * with any correct partitioning and reuse across all strategies).
    *
    * Partitions are mapped to workers by LPT over their *realized* loads
    * — the deterministic proxy for the dynamic scheduling both the
    * paper's YARN cluster and our Spark executor apply at runtime (a
    * worker picks up the next partition when it frees up, so placement
    * follows actual, not estimated, load).
    *
    * When the exploded input would exceed `explodeLimit` rows (Grid-ε in
    * 8 dimensions reaches thousands-fold duplication), per-worker input
    * falls back to the uniform proxy `I/w` — justified because the cell
    * count then vastly exceeds w, which is exactly the regime the paper
    * observes (`Im = I/w` in its Grid-ε columns). `I` itself is always
    * exact via per-tuple multiplicities.
    *
    * Runs three Spark jobs (two past `explodeLimit`): one pass over S ∪ T
    * for the input sizes and I, and one count per partition id each of the
    * routed input and of the output.
    */
  def compute(s: DataFrame, t: DataFrame, dims: Seq[String],
              part: BandPartitioning, pairs: Dataset[PairRow],
              explodeLimit: Long = 30000000L): PartMetrics = {
    val load = CostModel.default
    val w = part.numWorkers

    def points(df: DataFrame, side: Int): RDD[(Int, Long, Array[Double])] =
      BandJoinExec.tuples(df, dims).map { case (id, x) => (side, id, x) }
    val both = points(s, 0).union(points(t, 1))

    // (|S|, |T|, I_S, I_T)
    val sizes = both.aggregate(new Array[Long](4))(
      { case (a, (side, id, x)) =>
        a(side) += 1
        a(2 + side) += (if (side == 0) part.sMultiplicity(x, id) else part.tMultiplicity(x, id))
        a
      },
      (a, b) => { for (k <- a.indices) a(k) += b(k); a })
    val sCount = sizes(0)
    val tCount = sizes(1)
    val i = sizes(2) + sizes(3)

    val outByPid = countByPid(pairs.rdd.map(p => part.pairPartition(p.s, p.sid, p.t, p.tid)))
    val outCount = outByPid.values.sum

    def schedule(inByPid: collection.Map[Int, Long]): Lpt.Schedule = {
      val pids = (inByPid.keySet ++ outByPid.keySet).toArray.sorted
      Lpt.schedule(pids.map(inByPid.getOrElse(_, 0L).toDouble),
        pids.map(outByPid.getOrElse(_, 0L).toDouble), w, load)
    }
    val (perWorkerInput, perWorkerOutput, top, lm) =
      if (i <= explodeLimit) {
        val inByPid = countByPid(both.flatMap { case (side, id, x) =>
          if (side == 0) part.assignS(x, id) else part.assignT(x, id)
        })
        val sch = schedule(inByPid)
        (sch.in.map(_.toLong), sch.out.map(_.toLong), sch.top, sch.load(sch.top))
      } else {
        // input spread uniformly (#partitions >> w); outputs still LPT'd
        val base = Array.tabulate(w)(k => i / w + (if (k < i % w) 1L else 0L))
        val outW = schedule(Map.empty).out.map(_.toLong)
        val loads = Array.tabulate(w)(k => load.load(base(k).toDouble, outW(k).toDouble))
        val top = loads.indices.maxBy(loads)
        (base, outW, top, loads(top))
      }

    val l0 = load.lowerBound(sCount.toDouble, tCount.toDouble, outCount.toDouble, w)
    val input0 = (sCount + tCount).toDouble
    PartMetrics(
      sCount, tCount, outCount, i, perWorkerInput(top), perWorkerOutput(top),
      lm, l0,
      dupOverhead = if (input0 > 0) (i - input0) / input0 else 0.0,
      loadOverhead = if (l0 > 0) (lm - l0) / l0 else 0.0,
      perWorkerInput = perWorkerInput, perWorkerOutput = perWorkerOutput)
  }

  /** Occurrences of each partition id in `pids`, from one Spark job
    * without a shuffle.
    */
  private def countByPid(pids: RDD[Int]): collection.Map[Int, Long] =
    pids.aggregate(mutable.HashMap.empty[Int, Long])(
      (m, p) => { m(p) = m.getOrElse(p, 0L) + 1; m },
      (a, b) => { b.foreach { case (p, n) => a(p) = a.getOrElse(p, 0L) + n }; a })
}
