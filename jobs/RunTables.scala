package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.PaperTables

/** spark-submit entrypoint for the paper's tables, by registry id
  * (`2a` ... `16`, see `PaperTables.all`) or `all`, e.g.
  *
  *   spark-submit --class repro.jobs.RunTables target/scala-2.13/repro_*.jar 9
  *
  * Prints each table's rows (with the paper's numbers inline) and exits
  * non-zero if an id is unknown or a shape check fails.
  */
object RunTables {
  def main(args: Array[String]): Unit = {
    val ids = if (args.sameElements(Seq("all"))) PaperTables.all.keys.toSeq else args.toSeq
    if (ids.isEmpty || !ids.forall(PaperTables.all.contains)) {
      System.err.println(s"usage: RunTables all | <id>...  (ids: ${PaperTables.all.keys.mkString(" ")})")
      sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"tables-${ids.mkString("-")}")
      // BandSynth's rand(seed) and the sampler's per-partition reservoirs
      // follow the partition count, so it is fixed for every machine.
      .config("spark.default.parallelism", 4)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val failed = ids.flatMap { id =>
      val out = PaperTables.all(id)(spark)
      out.emit()
      out.failed
    }
    if (failed.nonEmpty) sys.exit(1)
  }
}
