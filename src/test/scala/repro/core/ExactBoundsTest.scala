package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, max, min}
import repro.{SparkSpec, TestData}

/** `RecPart.exactBounds` and `JoinSample.region` against Spark SQL's
  * `min` / `max` over S ∪ T.
  */
class ExactBoundsTest extends SparkSpec {

  /** The bounds as Spark SQL aggregates them; nulls (no rows) become 0. */
  private def sqlBounds(s: DataFrame, t: DataFrame, dims: Seq[String]): Region = {
    val u = s.select(dims.map(c => col(c).cast("double").as(c)): _*)
      .unionByName(t.select(dims.map(c => col(c).cast("double").as(c)): _*))
    val aggs = dims.flatMap(c => Seq(min(col(c)), max(col(c))))
    val row = u.agg(aggs.head, aggs.tail: _*).collect()(0)
    def bound(i: Int): Double = if (row.isNullAt(i)) 0.0 else row.getDouble(i)
    Region(Array.tabulate(dims.length)(i => bound(2 * i)),
      Array.tabulate(dims.length)(i => bound(2 * i + 1)))
  }

  /** Equal as doubles, NaN equal to NaN: ±0 compare equal. */
  private def same(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i => a(i) == b(i) || (a(i).isNaN && b(i).isNaN))

  private def df(pts: Seq[Array[Double]], firstId: Long = 0): DataFrame =
    TestData.df(spark, pts.zipWithIndex.map { case (x, i) => (firstId + i, x) })

  private def check(label: String, s: DataFrame, t: DataFrame, d: Int): Region = {
    val dims = TestData.dims(d)
    val got = RecPart.exactBounds(s, t, dims)
    val drawn = Samples.draw(s, t, dims, BandSpec(Array.fill(d)(0.0)), 100, 100).region
    val want = sqlBounds(s, t, dims)
    for ((source, r) <- Seq("exactBounds" -> got, "draw" -> drawn))
      assert(same(r.lo, want.lo) && same(r.hi, want.hi),
        s"$label, $source: lo ${r.lo.toSeq} hi ${r.hi.toSeq}, " +
          s"SQL lo ${want.lo.toSeq} hi ${want.hi.toSeq}")
    got
  }

  private val nan = Double.NaN
  private val inf = Double.PositiveInfinity

  test("exactBounds equals SQL min / max on NaN, infinities and signed zeros") {
    val cases = Seq(
      ("NaN in S", Seq(Array(1.0), Array(nan), Array(3.0)), Seq(Array(2.0), Array(-4.0))),
      ("NaN in T", Seq(Array(1.0), Array(3.0)), Seq(Array(nan), Array(-4.0))),
      ("all NaN", Seq(Array(nan)), Seq(Array(nan), Array(nan))),
      ("±Inf", Seq(Array(-inf), Array(0.5)), Seq(Array(inf), Array(2.0))),
      ("±Inf and NaN", Seq(Array(-inf), Array(nan)), Seq(Array(inf))),
      ("±0.0", Seq(Array(-0.0), Array(0.0)), Seq(Array(0.0), Array(-0.0))),
      ("only -0.0", Seq(Array(-0.0)), Seq(Array(-0.0))))
    for ((label, s, t) <- cases) check(label, df(s), df(t, 100), 1)
    val allNan = check("all NaN", df(Seq(Array(nan))), df(Seq(Array(nan)), 100), 1)
    assert(allNan.lo(0).isNaN && allNan.hi(0).isNaN)
    val someNan = check("NaN in S", df(cases.head._2), df(cases.head._3, 100), 1)
    assert(someNan.lo(0) == -4.0 && someNan.hi(0).isNaN)
  }

  test("exactBounds equals SQL min / max with empty sides and in 3 dimensions") {
    val s = TestData.randomDf(spark, 50, 3, 11, lo = -5, hi = 5)
    val t = TestData.randomDf(spark, 40, 3, 12, lo = 2, hi = 9)
    val empty = s.limit(0)
    check("d = 3", s, t, 3)
    check("S empty", empty, t, 3)
    check("T empty", s, empty, 3)
    val none = check("both empty", empty, empty, 3)
    assert(none.lo.forall(_ == 0.0) && none.hi.forall(_ == 0.0))
    val mixed = df(Seq(Array(nan, -inf, 1.0), Array(2.0, 3.0, -0.0)))
    check("d = 3, NaN and Inf", mixed, df(Seq(Array(-1.0, nan, inf)), 100), 3)
  }

  test("exactBounds runs one Spark job") {
    val s = TestData.randomDf(spark, 50, 2, 13)
    val t = TestData.randomDf(spark, 50, 2, 14)
    assert(sparkJobs { RecPart.exactBounds(s, t, TestData.dims(2)) } == 1)
  }
}
