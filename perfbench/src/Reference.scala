package perfbench

import org.apache.spark.sql.{Column, DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core.{BandSpec, PairRow}

/** Order-independent fingerprint of a pair multiset: its size plus two
  * wrapping sums of independent 64-bit pair hashes. A dropped pair
  * changes the count; a duplicated pair changes the count too; a
  * duplicate that replaces a dropped pair changes both sums unless the
  * two pairs collide on 128 hash bits.
  */
final case class Digest(count: Long, sumA: Long, sumB: Long) {
  def +(o: Digest): Digest = Digest(count + o.count, sumA + o.sumA, sumB + o.sumB)
}

object Digest {
  val empty: Digest = Digest(0L, 0L, 0L)

  /** SplitMix64 finalizer. */
  private def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def ofPair(sid: Long, tid: Long): Digest = {
    val a = mix(mix(sid + 0x9e3779b97f4a7c15L) ^ tid)
    val b = mix(mix(tid + 0x632be59bd9b4e019L) ^ (sid * 31))
    Digest(1L, a, b)
  }

  /** Fingerprint of a pair Dataset, computed by a single Spark action. */
  def of(pairs: Dataset[PairRow]): Digest = {
    val spark = pairs.sparkSession
    import spark.implicits._
    pairs.mapPartitions { it =>
      var d = empty
      it.foreach(p => d = d + ofPair(p.sid, p.tid))
      Iterator.single(d)
    }.reduce(_ + _)
  }
}

/** The reference answer every query is checked against. It is built by
  * Spark SQL alone — an equi-join on ε-cells of the first ≤3 dimensions,
  * then the full band filter — and never touches `BandJoinExec` or
  * `LocalJoin`, the code under test.
  */
object Reference {

  /** Every (s, t) with |s.Ai − t.Ai| ≤ εi in all dimensions, once.
    *
    * S sits in one cell per dimension, `floor(a / ε)`; each T tuple is
    * copied to its own cell and the two neighbours in each of the first
    * k dimensions, so a joining pair meets in exactly one cell key.
    */
  def pairs(s: DataFrame, t: DataFrame, dims: Seq[String], band: BandSpec): Dataset[PairRow] = {
    val spark = s.sparkSession
    import spark.implicits._
    val k = math.min(3, dims.length)
    require(band.eps.take(k).forall(_ > 0), "cell keys need ε > 0 in the first dimensions")
    def cell(c: Column, i: Int): Column = floor(c.cast("double") / lit(band.eps(i)))
    def side(df: DataFrame, p: String): DataFrame =
      df.select((col("id").cast("long").as(s"${p}id") +:
        dims.map(c => col(c).cast("double").as(s"$p$c"))): _*)

    val sCells = side(s, "s").select(col("*") +:
      (0 until k).map(i => cell(col(s"s${dims(i)}"), i).as(s"c$i")): _*)
    val offsets = (0 until k).foldLeft(Seq(Seq.empty[Int])) { (acc, _) =>
      for (o <- acc; x <- Seq(-1, 0, 1)) yield o :+ x
    }
    val tCells = side(t, "t")
      .withColumn("o", explode(array(offsets.map(o => array(o.map(lit): _*)): _*)))
      .select(col("*") +: (0 until k).map(i =>
        (cell(col(s"t${dims(i)}"), i) + element_at(col("o"), i + 1)).as(s"c$i")): _*)
      .drop("o")
    val inBand = dims.indices.map(i =>
      abs(col(s"s${dims(i)}") - col(s"t${dims(i)}")) <= lit(band.eps(i))).reduce(_ && _)
    sCells.join(tCells, (0 until k).map(i => s"c$i"))
      .where(inBand)
      .select(col("sid"), col("tid"),
        array(dims.map(c => col(s"s$c")): _*).as("s"),
        array(dims.map(c => col(s"t$c")): _*).as("t"))
      .as[PairRow]
  }

  /** Shows that comparing digests catches one dropped and one duplicated
    * pair of `ref`; returns false if either slips through. An empty `ref`
    * has no pair to drop, so one foreign pair is added instead.
    */
  def selfTest(ref: Dataset[PairRow], expected: Digest): Boolean = {
    val spark = ref.sparkSession
    import spark.implicits._
    val first = ref.limit(1).collect()
    val changed =
      if (first.isEmpty) Seq(ref.union(Seq(PairRow(0L, 0L, Array(0.0), Array(0.0))).toDS()))
      else {
        val isP = col("sid") === first(0).sid && col("tid") === first(0).tid
        Seq(ref.where(!isP), ref.union(ref.where(isP)))
      }
    changed.forall(Digest.of(_) != expected)
  }
}
