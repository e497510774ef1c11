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
  /** The same experiment with its statistics sample drawn from `seed`. */
  def withSampleSeed(seed: Long): PreparedExp = new PreparedExp(cfg,
    Samples.draw(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.kIn, cfg.kOut, seed), pairs, seed)
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
    * `strategies` a table asks for on it and returns their rows, with the
    * paper's numbers from `paper` (see `TableRow.paperCell`) and `rel`.
    * S, T and the pair set are unpersisted on the way out, also when a
    * strategy throws.
    */
  def run(cfg: ExpConfig, paper: Map[String, PaperNums] = Map.empty)(
      strategies: PreparedExp => Seq[TableRow]): Seq[TableRow] =
    try {
      val prep = prepare(cfg)
      try TableRow.relToRecPart(strategies(prep).map(r =>
        r.copy(paper = TableRow.paperCell(paper, r.strategy))))
      finally prep.pairs.unpersist()
    } finally {
      cfg.s.unpersist(); cfg.t.unpersist()
    }

  /** The one place a strategy run is timed and measured: `opt_ms` is the
    * wall time of `build`, and the row's metrics are exact against the
    * prepared pair set. `name` may read the partitioning (Grid*'s
    * multiplier).
    */
  private def row[P <: BandPartitioning](prep: PreparedExp, build: => P)(
      name: P => String): TableRow = {
    val t0 = System.nanoTime()
    val part = build
    val optMs = (System.nanoTime() - t0) / 1e6
    val cfg = prep.cfg
    TableRow.of(cfg.label, name(part), cfg.band, cfg.w, Some(prep.sampleSeed),
      Metrics.compute(cfg.s, cfg.t, cfg.dims, part, prep.pairs), None, Timing(optMs = Some(optMs)))
  }

  /** RecPart (symmetric = true) or RecPart-S (symmetric = false). */
  def recPart(prep: PreparedExp, symmetric: Boolean,
              termination: Termination = Termination.Applied,
              model: CostModel = CostModel.default): TableRow = {
    // The full (symmetric) RecPart also gets the guarded 1-Bucket
    // fallback for wedged leaves — same spirit of flexible split choice.
    // RecPart-S stays strictly by the paper so Table 9's ablation of
    // symmetric partitioning keeps its meaning (DESIGN.md §6).
    val rc = RecPartConfig(prep.cfg.w, symmetric = symmetric, costModel = model,
      termination = termination, gridFallback = symmetric)
    row(prep, RecPart.optimize(prep.sample, prep.sample.region, prep.cfg.band, rc).partitioning)(
      _ => if (symmetric) "RecPart" else "RecPart-S")
  }

  def csIo(prep: PreparedExp): TableRow = {
    val cfg = prep.cfg
    row(prep, CsIo.build(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.w, prep.sample))(_ => "CS_IO")
  }

  def oneBucket(prep: PreparedExp): TableRow =
    row(prep, OneBucket.forWorkers(prep.cfg.w))(_ => "1-Bucket")

  /** Grid-ε — None when any band width is zero (N/A in the paper). */
  def gridEps(prep: PreparedExp, multiplier: Double = 1.0): Option[TableRow] =
    if (prep.cfg.band.eps.exists(_ <= 0)) None
    else Some(row(prep, GridEps(prep.cfg.band, prep.cfg.w, multiplier))(_ =>
      if (multiplier == 1.0) "Grid-eps" else f"Grid(x$multiplier%.1f)"))

  def gridStar(prep: PreparedExp): Option[TableRow] =
    if (prep.cfg.band.eps.exists(_ <= 0)) None
    else Some(row(prep, GridStar.tune(prep.cfg.band, prep.cfg.w, prep.sample).part)(g =>
      s"Grid*(x${g.multiplier.toInt})"))

  def ieJoin(prep: PreparedExp, sizePerBlock: Int): TableRow = {
    val cfg = prep.cfg
    row(prep, IEJoinPart.build(cfg.s, cfg.t, cfg.dims, cfg.band, cfg.w, sizePerBlock,
      prep.sample))(_ => s"IEJoin($sizePerBlock)")
  }
}
