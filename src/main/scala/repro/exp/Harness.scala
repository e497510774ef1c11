package repro.exp

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.baselines._
import repro.core._

/** One experiment configuration: a band-join instance and its sample
  * sizes (§2, §6.1). `label` names the row group it produces.
  */
final case class ExpConfig(
    label: String,
    s: DataFrame, t: DataFrame,
    dims: Seq[String], band: BandSpec, w: Int,
    kIn: Int = 8000, kOut: Int = 8000)

/** Everything shared across the strategies of one experiment: cached
  * inputs, the statistics sample (shared, like the paper's ≤5%
  * statistics-gathering budget) drawn from `sampleSeed`, with the exact
  * root bounding box, and the exact output pair set (computed once with a
  * trivially correct 1-Bucket execution and reused for every strategy's
  * metrics).
  */
final class PreparedExp(val cfg: ExpConfig, val sample: JoinSample,
                        val pairs: Dataset[PairRow], val sampleSeed: Long) {
  def metrics(part: BandPartitioning): PartMetrics =
    Metrics.compute(cfg.s, cfg.t, cfg.dims, part, pairs)

  /** The same experiment with its statistics sample drawn from `seed`. */
  def withSampleSeed(seed: Long): PreparedExp = new PreparedExp(cfg,
    Samples.draw(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.kIn, cfg.kOut, seed), pairs, seed)
}

/** Outcome of running one strategy on one experiment. */
final case class StrategyResult(name: String, optMs: Double, m: PartMetrics, sampleSeed: Long) {
  /** `CostModel.default` on the exact (I, Im, Om). */
  def predicted: Double = CostModel.default.predict(m.i.toDouble, m.im.toDouble, m.om.toDouble)
}

/** Shared experiment harness used by the paper tables: prepares a config
  * once and runs each partitioning strategy over it.
  */
object Harness {

  /** The statistics sample's seed unless a table sets one. */
  private val SampleSeed = 42L

  def prepare(cfg: ExpConfig): PreparedExp = {
    cfg.s.cache().count()
    cfg.t.cache().count()
    val sample = Samples.draw(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.kIn, cfg.kOut, SampleSeed)
    val pairs = BandJoinExec.pairs(cfg.s, cfg.t, cfg.dims, cfg.band,
      OneBucket.forWorkers(math.min(cfg.w, 16))).cache()
    pairs.count()
    new PreparedExp(cfg, sample, pairs, SampleSeed)
  }

  /** The one runner of the paper tables: prepares `cfg`, runs the
    * `strategies` a table asks for on it and returns one row per result,
    * with the paper's numbers from `paper` (see `TableRow.paperCell`).
    * S, T and the pair set are unpersisted on the way out, also when a
    * strategy throws.
    */
  def run(cfg: ExpConfig, paper: Map[String, PaperNums] = Map.empty)(
      strategies: PreparedExp => Seq[StrategyResult]): Seq[TableRow] =
    try {
      val prep = prepare(cfg)
      try TableRow.relToRecPart(strategies(prep).map { r =>
        TableRow.of(cfg.label, r.name, cfg.band, cfg.w, Some(r.sampleSeed), r.m,
          TableRow.paperCell(paper, r.name), Timing(optMs = Some(r.optMs)))
      }) finally prep.pairs.unpersist()
    } finally {
      cfg.s.unpersist(); cfg.t.unpersist()
    }

  private def finish(prep: PreparedExp, name: String, part: BandPartitioning,
                     optMs: Double): StrategyResult =
    StrategyResult(name, optMs, prep.metrics(part), prep.sampleSeed)

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
    finish(prep, if (symmetric) "RecPart" else "RecPart-S", res.partitioning, res.optTimeMs)
  }

  def csIo(prep: PreparedExp): StrategyResult = {
    val cfg = prep.cfg
    val r = CsIo.build(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.w, prep.sample)
    finish(prep, "CS_IO", r.part, r.optTimeMs)
  }

  def oneBucket(prep: PreparedExp): StrategyResult = {
    val t0 = System.nanoTime()
    val part = OneBucket.forWorkers(prep.cfg.w)
    finish(prep, "1-Bucket", part, (System.nanoTime() - t0) / 1e6)
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
      Some(finish(prep, s"Grid*(x${r.chosen.multiplier})", r.part, r.optTimeMs))
    }

  def ieJoin(prep: PreparedExp, sizePerBlock: Int): StrategyResult = {
    val cfg = prep.cfg
    val (part, ms) = IEJoinPart.build(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.w,
      sizePerBlock, prep.sample)
    finish(prep, s"IEJoin($sizePerBlock)", part, ms)
  }
}
