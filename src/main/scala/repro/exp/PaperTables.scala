package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.BandSynth
import scala.collection.immutable.ListMap

/** Printable result of reproducing one paper table. */
final case class TableOutput(title: String, lines: Seq[String],
                             checks: Seq[(String, Boolean)]) {
  def failed: Seq[String] = checks.collect { case (n, false) => n }

  /** Print the title, the rows and each shape check as `[ok]` / `[FAIL]`. */
  def emit(): Unit = {
    println(s"\n== $title ==")
    lines.foreach(println)
    checks.foreach { case (n, ok) => println(s"  [${if (ok) "ok" else "FAIL"}] $n") }
  }
}

/** Every reproduced table of the evaluation section, by id, in the
  * paper's order. The `jobs/` main and the bench suite both run tables
  * from here.
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

  private[exp] def paretoPair(spark: SparkSession, rows: Long, z: Double, d: Int,
                              quantize: Double = 0.0): (DataFrame, DataFrame) = (
    BandSynth.pareto(spark, rows, z, d, seed = 1001, quantize),
    BandSynth.pareto(spark, rows, z, d, seed = 2002, quantize))

  private[exp] def ebirdCloud(spark: SparkSession, scale: Double = 1.0): (DataFrame, DataFrame) = (
    BandSynth.ebird(spark, (Scales.EbirdRows * scale).toLong, seed = 3003),
    BandSynth.cloud(spark, (Scales.CloudRows * scale).toLong, seed = 4004))
}
