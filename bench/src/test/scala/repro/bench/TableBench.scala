package repro.bench

import repro.SparkSpec
import repro.exp.PaperTables

/** One benchmark test per paper table, in registry order. Each prints
  * its reproduced rows into the bench log next to the paper's numbers,
  * and fails if a shape check breaks. One table:
  * `sbt "bench/testOnly repro.bench.TableBench -- -t \"Table 9\""`.
  */
class TableBench extends SparkSpec {
  for ((id, table) <- PaperTables.all)
    test(s"Table $id") {
      val out = table(spark)
      out.emit()
      assert(out.failed.isEmpty, s"shape checks failed: ${out.failed.mkString("; ")}")
    }
}
