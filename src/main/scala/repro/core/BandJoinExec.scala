package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, Row}
import org.apache.spark.sql.functions.col

/** An input tuple routed to one partition of the join partitioning. */
final case class Routed(pid: Int, side: Int, id: Long, x: Array[Double])

/** One band-join output pair with both tuples' join-attribute points
  * (the points let Metrics re-derive, for any *other* partitioning, the
  * partition in which this pair would have been produced).
  */
final case class PairRow(sid: Long, tid: Long, s: Array[Double], t: Array[Double])

/** The distributed band-join pipeline (§2 "System Model"): the entire
  * input is read, each tuple is routed to the partitions chosen by the
  * `BandPartitioning` (map phase + shuffle), and each partition is
  * joined locally with the paper's index-nested-loops algorithm (reduce
  * phase). Because Definition 1 guarantees each result pair is recovered
  * by exactly one local join, no post-hoc duplicate elimination runs.
  *
  * Inputs are DataFrames with a unique long `id` column plus the join
  * attribute columns `dims`.
  */
object BandJoinExec {

  /** `df`'s `id` as a long column followed by the join attributes
    * `dims` as doubles.
    */
  private[core] def idAndDims(df: DataFrame, dims: Seq[String]): DataFrame =
    df.select(col("id").cast("long") +: dims.map(c => col(c).cast("double")): _*)

  /** The join-attribute point of a row of `idAndDims`. A null join
    * attribute is rejected, not skipped.
    */
  private[core] def point(r: Row, dims: Seq[String]): Array[Double] =
    Array.tabulate(dims.length) { i =>
      require(!r.isNullAt(i + 1), s"null in join attribute ${dims(i)}")
      r.getDouble(i + 1)
    }

  /** Route a DataFrame's tuples: map-side explode by partition id. */
  def route(df: DataFrame, dims: Seq[String], side: Int,
            part: BandPartitioning): Dataset[Routed] = {
    val spark = df.sparkSession
    import spark.implicits._
    idAndDims(df, dims).flatMap { r =>
      val id = r.getLong(0)
      val x = point(r, dims)
      val pids = if (side == 0) part.assignS(x, id) else part.assignT(x, id)
      pids.map(pid => Routed(pid, side, id, x))
    }
  }

  /** Execute the distributed band-join and return the output pairs. */
  def pairs(s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
            part: BandPartitioning): Dataset[PairRow] = {
    val spark = s.sparkSession
    import spark.implicits._
    val routed = route(s, dims, 0, part).union(route(t, dims, 1, part))
    routed.groupByKey(_.pid).flatMapGroups { (_, it) =>
      val sIds = scala.collection.mutable.ArrayBuffer.empty[Long]
      val sPts = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
      val tIds = scala.collection.mutable.ArrayBuffer.empty[Long]
      val tPts = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
      it.foreach { r =>
        if (r.side == 0) { sIds += r.id; sPts += r.x } else { tIds += r.id; tPts += r.x }
      }
      val out = scala.collection.mutable.ArrayBuffer.empty[PairRow]
      LocalJoin.forEachMatch(sPts.toArray, tPts.toArray, band) { (si, ti) =>
        out += PairRow(sIds(si), tIds(ti), sPts(si), tPts(ti))
      }
      out.iterator
    }
  }

  /** Output pairs as a two-column (sid, tid) DataFrame — the shape the
    * DuckDB oracle compares against.
    */
  def pairIds(s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec,
              part: BandPartitioning): DataFrame = {
    val spark = s.sparkSession
    import spark.implicits._
    pairs(s, t, dims, band, part).select($"sid", $"tid")
  }

  /** DuckDB SQL producing the same (sid, tid) pair set — for the oracle.
    * The oracle stores every column as VARCHAR, hence the casts.
    */
  def oracleSql(dims: Seq[String], band: BandSpec): String = {
    val conds = dims.zipWithIndex.map { case (c, i) =>
      s"abs(CAST(s.$c AS DOUBLE) - CAST(t.$c AS DOUBLE)) <= ${band.eps(i)}"
    }
    "SELECT CAST(s.id AS BIGINT) AS sid, CAST(t.id AS BIGINT) AS tid " +
      s"FROM s, t WHERE ${conds.mkString(" AND ")}"
  }
}
