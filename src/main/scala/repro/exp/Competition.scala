package repro.exp

/** The competition-style tables (2-4, 15): on each band-join instance
  * RecPart (or RecPart-S) races the three baselines.
  */
object Competition {

  /** Runs RecPart (`symmetric`) or RecPart-S, CS_IO, 1-Bucket and Grid-ε
    * on each (instance, paper numbers) row, and checks per row that
    * RecPart is near both lower bounds and has the best predicted time.
    *
    * `tol` — near-optimality tolerance; the 8-dimensional tables use a
    * looser bound (the paper's <=10% was achieved at 2000x our input
    * cardinality and 12.5x our sample rate; in 8D the corner clique
    * spans many ε at our scale, see EXPERIMENTS.md).
    */
  def table(title: String, symmetric: Boolean, tol: Double = 0.40)(
      rows: Seq[(ExpConfig, Map[String, PaperNums])]): TableOutput = {
    val groups = rows.map { case (cfg, paper) =>
      Harness.run(cfg, paper)(p => Seq(Harness.recPart(p, symmetric), Harness.csIo(p),
        Harness.oneBucket(p)) ++ Harness.gridEps(p))
    }
    TableOutput(title, groups.flatten, groups.flatMap { g =>
      Seq(
        (s"${g.head.group}: RecPart within ${(tol * 100).round}% of both lower bounds",
          recPartNearOptimal(g, tol)),
        (s"${g.head.group}: RecPart has the best predicted time", recPartWins(g)))
    })
  }

  /** Figure 4 check on a row group led by RecPart: its two overheads
    * versus the lower bounds. The paper reports <= 10%; at 1/2000 scale
    * the calibrated band widths cover a constant fraction of the key
    * space (they must, to preserve the output/input ratio), which makes
    * the widest-band rows intrinsically harder — no partitioning attains
    * both bounds there — hence the looser default tolerance (see
    * EXPERIMENTS.md).
    */
  def recPartNearOptimal(group: Seq[TableRow], tol: Double = 0.40): Boolean =
    group.head.dupOH <= tol && group.head.loadOH <= tol

  /** Main-result check on a row group led by RecPart: its predicted time
    * is the best (small tolerance for sampling noise).
    */
  def recPartWins(group: Seq[TableRow], slack: Double = 1.05): Boolean =
    group.tail.forall(r => group.head.predT <= r.predT * slack)
}
