package repro.exp

/** The paper's reported numbers for one strategy in one table row:
  * runtime/opt in seconds, I/Im/Om in millions of tuples. Negative
  * values mean "not reported / N/A".
  */
final case class PaperNums(runtime: Double, opt: Double,
                           i: Double, im: Double, om: Double) {
  def str: String =
    f"rt=${if (runtime < 0) "-" else runtime.round.toString}%s " +
      f"I=${if (i < 0) "-" else i.round.toString}%s " +
      f"Im=${if (im < 0) "-" else im.round.toString}%s " +
      f"Om=${if (om < 0) "-" else om.round.toString}%s"
}

object PaperNums {
  val NA: PaperNums = PaperNums(-1, -1, -1, -1, -1)
}

/** One row of a competition-style table (Tables 2-4, 15): a band-join
  * instance on which RecPart(-S) races the three baselines.
  */
final case class CompetitionRow(
    label: String,
    mkConfig: () => ExpConfig,
    recSymmetric: Boolean,
    paper: Map[String, PaperNums])

/** Measured outcome of one row: all strategy results plus the prepared
  * experiment's invariants.
  */
final case class CompetitionOutcome(
    label: String,
    results: Seq[StrategyResult],
    sCount: Long, tCount: Long, outCount: Long) {
  def rec: StrategyResult = results.head
  def apply(name: String): Option[StrategyResult] = results.find(_.name == name)
}

object Competition {

  /** Strategy display order in the paper's tables. */
  val Names = Seq("RecPart", "CS_IO", "1-Bucket", "Grid-eps")

  def run(row: CompetitionRow): CompetitionOutcome = {
    val prep = Harness.prepare(row.mkConfig())
    val rec = Harness.recPart(prep, symmetric = row.recSymmetric)
    val results = Seq(
      rec.copy(name = if (row.recSymmetric) "RecPart" else "RecPart-S"),
      Harness.csIo(prep),
      Harness.oneBucket(prep)) ++ Harness.gridEps(prep)
    val out = CompetitionOutcome(row.label, results,
      prep.sample.sCount, prep.sample.tCount, prep.pairs.count())
    prep.pairs.unpersist()
    prep.cfg.s.unpersist(); prep.cfg.t.unpersist()
    out
  }

  /** Format one outcome as table lines, with the paper's numbers inline.
    * Ours are printed both raw (local tuples) and as duplication /
    * balance factors, which are the scale-invariant quantities to
    * compare against the paper.
    */
  def lines(o: CompetitionOutcome, paper: Map[String, PaperNums]): Seq[String] = {
    val recPredicted = o.results.head.predicted
    val header = f"--- ${o.label} | |S|=${o.sCount} |T|=${o.tCount} |out|=${o.outCount} ---"
    val rows = o.results.map { r =>
      val p = paper.getOrElse(stripParam(r.name), PaperNums.NA)
      val rel = r.predicted / recPredicted
      f"${r.name}%-10s opt=${r.optMs}%7.0fms predT=${r.predicted}%12.0f rel=${rel}%6.2f " +
        f"I=${r.i}%9d (x${r.m.dupOverhead + 1}%5.2f) Im=${r.im}%8d Om=${r.om}%8d " +
        f"dupOH=${r.m.dupOverhead}%6.3f loadOH=${r.m.loadOverhead}%6.3f | paper: ${p.str}"
    }
    header +: rows
  }

  private def stripParam(name: String): String =
    if (name.startsWith("RecPart")) "RecPart" else name

  /** Figure 4 check: RecPart's two overheads versus the lower bounds.
    * The paper reports <= 10%; at 1/2000 scale the calibrated band
    * widths cover a constant fraction of the key space (they must, to
    * preserve the output/input ratio), which makes the widest-band rows
    * intrinsically harder — no partitioning attains both bounds there —
    * hence the looser default tolerance (see EXPERIMENTS.md).
    */
  def recPartNearOptimal(o: CompetitionOutcome, tol: Double = 0.40): Boolean =
    o.rec.m.dupOverhead <= tol && o.rec.m.loadOverhead <= tol

  /** Main-result check: RecPart's predicted time is the best (small
    * tolerance for sampling noise).
    */
  def recPartWins(o: CompetitionOutcome, slack: Double = 1.05): Boolean =
    o.results.tail.forall(r => o.rec.predicted <= r.predicted * slack)
}
