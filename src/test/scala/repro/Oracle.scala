package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import repro.core.{BandJoinExec, BandPartitioning, BandSpec}

/** DuckDB correctness oracle.
  *
  * ``duckdb(sql, tables)`` runs ``sql`` on DuckDB (via JDBC, in-process)
  * over ``tables`` once; ``assertMatches(sparkDf, answer)`` asserts that
  * the sorted rows of each Spark result match it. This catches wrong
  * results from a rewritten plan or a custom operator — "it ran" is not
  * "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  /** The distributed band-join's output pairs as a two-column (sid, tid)
    * DataFrame: the shape `assertMatches` compares.
    */
  def pairIds(s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
              part: BandPartitioning): DataFrame =
    BandJoinExec.pairs(s, t, dims, band, part).select("sid", "tid")

  /** DuckDB SQL producing the same (sid, tid) pair set. The oracle stores
    * every column as VARCHAR, hence the casts.
    */
  def oracleSql(dims: Seq[String], band: BandSpec): String = {
    val conds = dims.zipWithIndex.map { case (c, i) =>
      s"abs(CAST(s.$c AS DOUBLE) - CAST(t.$c AS DOUBLE)) <= ${band.eps(i)}"
    }
    "SELECT CAST(s.id AS BIGINT) AS sid, CAST(t.id AS BIGINT) AS tid " +
      s"FROM s, t WHERE ${conds.mkString(" AND ")}"
  }

  /** Sorted canonical rows of a query's answer, with its column names. */
  final case class Answer(cols: Seq[String], rows: Seq[Seq[String]])

  /** DuckDB's answer to `sql` over `tables`. */
  def duckdb(sql: String, tables: (String, DataFrame)*): Answer = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      Answer(dCols, canon(dRows, dCols))
    } finally conn.close()
  }

  /** Asserts that `sparkDf`'s rows are `expected`'s. */
  def assertMatches(sparkDf: DataFrame, expected: Answer): Unit = {
    val sCols = sparkDf.columns.toSeq
    require(
      expected.cols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
      s"column mismatch: spark=${sCols.sorted} duckdb=${expected.cols.sorted} — alias every output column"
    )
    val got = canon(sparkDf.collect().toSeq, sCols)
    val exp = expected.rows
    require(got == exp,
      s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
      s"  first spark-only: ${got.diff(exp).take(3)}\n" +
      s"  first duck-only:  ${exp.diff(got).take(3)}"
    )
  }
}
