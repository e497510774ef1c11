package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{BandSpec, CostModel, PartMetrics}
import repro.data.BandSynth
import scala.collection.immutable.ListMap

/** The paper's reported numbers for one strategy in one table row:
  * runtime (Table 5: join time) and opt in seconds, I/Im/Om in millions
  * of tuples. Negative values mean "not reported / N/A".
  */
final case class PaperNums(runtime: Double, opt: Double,
                           i: Double, im: Double, om: Double)

object PaperNums {
  /** A cell that reports only I / Im / Om. */
  def counts(i: Double, im: Double, om: Double): PaperNums = PaperNums(-1, -1, i, im, om)
}

/** The host-dependent fields of a row, which a comparison of runs skips:
  * optimization wall time, and Table 12's measured join time and its
  * fitted model's prediction of it.
  */
final case class Timing(optMs: Option[Double] = None, joinMs: Option[Double] = None,
                        fitMs: Option[Double] = None)

/** One strategy's outcome in a reproduced paper table. `group` names the
  * band-join instance; the strategy's name carries its parameters
  * (`Grid(x2.0)`, `Grid*(x11)`, `IEJoin(6000)`). `predT` is
  * `CostModel.default` on the exact (I, Im, Om) and `rel` is `predT`
  * over that of the group's RecPart row.
  */
final case class TableRow(
    group: String, strategy: String,
    eps: Seq[Double], w: Int, sampleSeed: Option[Long],
    sCount: Long, tCount: Long, outCount: Long,
    i: Long, im: Long, om: Long, dupOH: Double, loadOH: Double,
    predT: Double, rel: Option[Double],
    paper: Option[PaperNums],
    timing: Timing)

object TableRow {

  /** The row of `strategy`'s exact metrics `m`, with `rel` unset. */
  def of(group: String, strategy: String, band: BandSpec, w: Int, sampleSeed: Option[Long],
         m: PartMetrics, paper: Option[PaperNums], timing: Timing): TableRow =
    TableRow(group, strategy, band.eps.toSeq, w, sampleSeed, m.sCount, m.tCount, m.outCount,
      m.i, m.im, m.om, m.dupOverhead, m.loadOverhead,
      CostModel.default.predict(m.i.toDouble, m.im.toDouble, m.om.toDouble), None, paper, timing)

  /** Sets each row's `rel` against the first RecPart row (RecPart,
    * RecPart-S or a parameterized one) of the same group and sample
    * seed; a group without one leaves `rel` unset.
    */
  def relToRecPart(rows: Seq[TableRow]): Seq[TableRow] = rows.map { r =>
    r.copy(rel = rows.find(b => b.group == r.group && b.sampleSeed == r.sampleSeed &&
      b.strategy.startsWith("RecPart")).map(r.predT / _.predT))
  }

  /** The paper's numbers for `strategy`: by its exact name, else by its
    * family (the name without its parameter and without RecPart-S's
    * `-S`, as the competition tables list the paper's numbers).
    */
  def paperCell(paper: Map[String, PaperNums], strategy: String): Option[PaperNums] =
    paper.get(strategy).orElse(paper.get(strategy.takeWhile(_ != '(').stripSuffix("-S")))
}

/** Result of reproducing one paper table: its rows and its shape checks. */
final case class TableOutput(title: String, rows: Seq[TableRow],
                             checks: Seq[(String, Boolean)]) {
  def failed: Seq[String] = checks.collect { case (n, false) => n }

  /** The table as text: the title, the column heads, each group's header
    * and rows, and each check as `[ok]` / `[FAIL]`. The only place a row
    * is formatted; `-` marks a value the row does not have.
    */
  def render: Seq[String] = {
    def opt(v: Option[Double], fmt: Double => String) = v.fold("-")(fmt)
    def ms(v: Option[Double]) = opt(v, x => f"$x%.0f")
    def paperNum(v: Double) =
      if (v < 0) "-" else if (v == math.rint(v)) f"$v%.0f" else v.toString
    def key(r: TableRow) = (r.group, r.eps, r.w, r.sampleSeed)
    val heads = f"  ${"strategy"}%-20s ${"opt_ms"}%8s ${"join_ms"}%8s ${"fit_ms"}%8s " +
      f"${"predT"}%13s ${"rel"}%6s ${"I"}%10s ${"xdup"}%6s ${"Im"}%9s ${"Om"}%9s " +
      f"${"dupOH"}%6s ${"loadOH"}%6s | paper (s, M tuples)"
    val body = rows.indices.flatMap { k =>
      val r = rows(k)
      val header =
        if (k > 0 && key(rows(k - 1)) == key(r)) Nil
        else Seq(s"--- ${r.group} | eps=${r.eps.map(e => f"$e%.3g").mkString("(", ",", ")")} " +
          s"w=${r.w} seed=${r.sampleSeed.fold("-")(_.toString)} " +
          s"|S|=${r.sCount} |T|=${r.tCount} |out|=${r.outCount} ---")
      val paper = r.paper.fold("-")(p => s"rt=${paperNum(p.runtime)} opt=${paperNum(p.opt)} " +
        s"I=${paperNum(p.i)} Im=${paperNum(p.im)} Om=${paperNum(p.om)}")
      header :+ f"  ${r.strategy}%-20s ${ms(r.timing.optMs)}%8s ${ms(r.timing.joinMs)}%8s " +
        f"${ms(r.timing.fitMs)}%8s ${r.predT}%13.0f ${opt(r.rel, x => f"$x%.2f")}%6s " +
        f"${r.i}%10d ${1 + r.dupOH}%6.3f ${r.im}%9d ${r.om}%9d ${r.dupOH}%6.3f ${r.loadOH}%6.3f" +
        s" | $paper"
    }
    (s"\n== $title ==" +: heads +: body) ++
      checks.map { case (n, ok) => s"  [${if (ok) "ok" else "FAIL"}] $n" }
  }

  def emit(): Unit = render.foreach(println)
}

/** Every reproduced table of the evaluation section, by id, in the
  * paper's order, and the data families they draw their instances from.
  * The `jobs/` main and the bench suite both run tables from here.
  */
object PaperTables {

  val all: ListMap[String, SparkSession => TableOutput] = ListMap(
    "2a" -> Tables.table2a, "2b" -> Tables.table2b, "2c" -> Tables.table2c,
    "3" -> Tables.table3,
    "4a" -> Tables.table4a, "4b" -> Tables.table4b,
    "4c" -> Tables.table4c, "4d" -> Tables.table4d,
    "5" -> TablesSpecial.table5, "6" -> TablesSpecial.table6,
    "7" -> TablesSpecial.table7, "8" -> TablesSpecial.table8,
    "9" -> TablesSpecial.table9, "12" -> TablesSpecial.table12,
    "15" -> Tables.table15, "16" -> TablesSpecial.table16)

  /** Logical workers, unless a table sweeps them. */
  private[exp] val W = 30

  // Each family's calibration (`*Eps`) picks band widths `m · base` whose
  // estimated output/input ratio on the family's default-size instance
  // is `ratio` (DESIGN.md §3).

  private def paretoPair(spark: SparkSession, rows: Long, z: Double, d: Int,
                         quantize: Double = 0.0): (DataFrame, DataFrame) = (
    BandSynth.pareto(spark, rows, z, d, seed = 1001, quantize),
    BandSynth.pareto(spark, rows, z, d, seed = 2002, quantize))

  /** pareto-z in `d` dimensions, `rows` tuples per input. */
  private[exp] def pareto(spark: SparkSession, label: String, z: Double, d: Int,
                          band: BandSpec, w: Int = W, rows: Long = Scales.ParetoRows,
                          quantize: Double = 0.0): ExpConfig = {
    val (s, t) = paretoPair(spark, rows, z, d, quantize)
    ExpConfig(label, s, t, BandSynth.dims(d), band, w)
  }

  private[exp] def paretoEps(spark: SparkSession, z: Double, d: Int, ratio: Double): BandSpec = {
    val (s, t) = paretoPair(spark, Scales.ParetoRows, z, d)
    Calibrate.epsForRatio(s, t, BandSynth.dims(d), Array.fill(d)(1.0), ratio)
  }

  /** pareto-1.5 S against rv-pareto-1.5 T; band widths are the paper's. */
  private[exp] def rvPareto(spark: SparkSession, label: String, d: Int,
                            band: BandSpec): ExpConfig =
    ExpConfig(label, BandSynth.pareto(spark, Scales.ParetoRows, 1.5, d, seed = 1001),
      BandSynth.rvPareto(spark, Scales.ParetoRows, 1.5, d, seed = 2002),
      BandSynth.dims(d), band, W)

  private def ebirdCloudPair(spark: SparkSession, scale: Double): (DataFrame, DataFrame) = (
    BandSynth.ebird(spark, (Scales.EbirdRows * scale).toLong, seed = 3003),
    BandSynth.cloud(spark, (Scales.CloudRows * scale).toLong, seed = 4004))

  /** ebird ⋈ cloud at `scale` times the default cardinalities. */
  private[exp] def ebirdCloud(spark: SparkSession, label: String, band: BandSpec,
                              w: Int = W, scale: Double = 1.0): ExpConfig = {
    val (s, t) = ebirdCloudPair(spark, scale)
    ExpConfig(label, s, t, BandSynth.dims(3), band, w)
  }

  /** Time gets a wider base than latitude and longitude: days vs degrees. */
  private[exp] def ebirdCloudEps(spark: SparkSession, ratio: Double): BandSpec = {
    val (s, t) = ebirdCloudPair(spark, 1.0)
    Calibrate.epsForRatio(s, t, BandSynth.dims(3), Array(10.0, 1.0, 1.0), ratio)
  }

  private def ptfPair(spark: SparkSession): (DataFrame, DataFrame) = (
    BandSynth.ptf(spark, Scales.PtfRows, seed = 21),
    BandSynth.ptf(spark, Scales.PtfRows, seed = 22))

  /** ptf_objects self-match in (ra, dec). */
  private[exp] def ptf(spark: SparkSession, label: String, band: BandSpec): ExpConfig = {
    val (s, t) = ptfPair(spark)
    ExpConfig(label, s, t, BandSynth.dims(2), band, W)
  }

  private[exp] def ptfEps(spark: SparkSession, ratio: Double): BandSpec = {
    val (s, t) = ptfPair(spark)
    Calibrate.epsForRatio(s, t, BandSynth.dims(2), Array(1.0, 1.0), ratio)
  }
}
