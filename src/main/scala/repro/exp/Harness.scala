package repro.exp

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.baselines._
import repro.core._

/** One experiment configuration: a band-join instance and its sample
  * sizes (§2, §6.1).
  */
final case class ExpConfig(
    label: String,
    s: DataFrame, t: DataFrame,
    dims: Seq[String], band: BandSpec, w: Int,
    kIn: Int = 8000, kOut: Int = 8000)

/** Everything shared across the strategies of one experiment: cached
  * inputs, the statistics sample (shared, like the paper's ≤5%
  * statistics-gathering budget) with the exact root bounding box, and the
  * exact output pair set (computed once with a trivially correct
  * 1-Bucket execution and reused for every strategy's metrics).
  */
final class PreparedExp(val cfg: ExpConfig, val sample: JoinSample,
                        val pairs: Dataset[PairRow]) {
  def metrics(part: BandPartitioning): PartMetrics =
    Metrics.compute(cfg.s, cfg.t, cfg.dims, part, pairs)

  /** The same experiment with its statistics sample drawn from `seed`. */
  def withSampleSeed(seed: Long): PreparedExp = new PreparedExp(cfg,
    Samples.draw(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.kIn, cfg.kOut, seed), pairs)
}

/** Outcome of running one strategy on one experiment. */
final case class StrategyResult(
    name: String,
    optMs: Double,
    m: PartMetrics,
    predicted: Double,
    detail: String = "") {
  def i: Long = m.i
  def im: Long = m.im
  def om: Long = m.om
}

/** Shared experiment harness used by the bench suites and the
  * spark-submit jobs: prepares a config once and runs each partitioning
  * strategy over it.
  */
object Harness {

  def prepare(cfg: ExpConfig): PreparedExp = {
    cfg.s.cache().count()
    cfg.t.cache().count()
    val sample = Samples.draw(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.kIn, cfg.kOut)
    val pairs = BandJoinExec.pairs(cfg.s, cfg.t, cfg.dims, cfg.band,
      OneBucket.forWorkers(math.min(cfg.w, 16))).cache()
    pairs.count()
    new PreparedExp(cfg, sample, pairs)
  }

  private def finish(prep: PreparedExp, name: String, part: BandPartitioning,
                     optMs: Double, detail: String = ""): StrategyResult = {
    val m = prep.metrics(part)
    StrategyResult(name, optMs, m,
      CostModel.default.predict(m.i.toDouble, m.im.toDouble, m.om.toDouble), detail)
  }

  /** RecPart (symmetric = true) or RecPart-S (symmetric = false). */
  def recPart(prep: PreparedExp, symmetric: Boolean,
              termination: Termination = Termination.Applied,
              model: CostModel = CostModel.default): StrategyResult = {
    val cfg = prep.cfg
    // The full (symmetric) RecPart also gets the guarded 1-Bucket
    // fallback for wedged leaves — same spirit of flexible split choice.
    // RecPart-S stays strictly by the paper so Table 9's ablation of
    // symmetric partitioning keeps its meaning (DESIGN.md §6).
    val rc = RecPartConfig(cfg.w, symmetric = symmetric, costModel = model,
      termination = termination, gridFallback = symmetric)
    val res = RecPart.optimize(prep.sample, prep.sample.region, cfg.band, rc)
    finish(prep, if (symmetric) "RecPart" else "RecPart-S", res.partitioning,
      res.optTimeMs, s"iters=${res.iterations} chosen=${res.chosenIteration}")
  }

  def csIo(prep: PreparedExp): StrategyResult = {
    val cfg = prep.cfg
    val r = CsIo.build(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.w, prep.sample)
    finish(prep, "CS_IO", r.part, r.optTimeMs,
      s"regions=${r.numRegions} cells=${r.numCandidateCells}")
  }

  def oneBucket(prep: PreparedExp): StrategyResult = {
    val t0 = System.nanoTime()
    val part = OneBucket.forWorkers(prep.cfg.w)
    finish(prep, "1-Bucket", part, (System.nanoTime() - t0) / 1e6,
      s"r=${part.r} c=${part.c}")
  }

  /** Grid-ε — None when any band width is zero (N/A in the paper). */
  def gridEps(prep: PreparedExp, multiplier: Double = 1.0): Option[StrategyResult] =
    if (prep.cfg.band.eps.exists(_ <= 0)) None
    else {
      val t0 = System.nanoTime()
      val part = GridEps(prep.cfg.band, prep.cfg.w, multiplier)
      Some(finish(prep, if (multiplier == 1.0) "Grid-eps" else f"Grid(x$multiplier%.1f)",
        part, (System.nanoTime() - t0) / 1e6))
    }

  def gridStar(prep: PreparedExp): Option[StrategyResult] =
    if (prep.cfg.band.eps.exists(_ <= 0)) None
    else {
      val r = GridStar.tune(prep.cfg.band, prep.cfg.w, prep.sample)
      Some(finish(prep, "Grid*", r.part, r.optTimeMs,
        s"mult=${r.chosen.multiplier}"))
    }

  def ieJoin(prep: PreparedExp, sizePerBlock: Int): StrategyResult = {
    val cfg = prep.cfg
    val (part, ms) = IEJoinPart.build(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.w,
      sizePerBlock, prep.sample)
    finish(prep, s"IEJoin($sizePerBlock)", part, ms, s"tasks=${part.numRegions}")
  }
}
