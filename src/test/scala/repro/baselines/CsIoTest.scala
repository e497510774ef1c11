package repro.baselines

import repro.{SparkSpec, TestData}
import repro.core._

class CsIoTest extends SparkSpec {

  private def build(s: org.apache.spark.sql.DataFrame, t: org.apache.spark.sql.DataFrame,
                    dims: Seq[String], band: BandSpec, w: Int): MatrixCover = {
    val sample = Samples.draw(s, t, dims, band, 600, 600, seed = 3)
    CsIo.build(s, t, dims, band, w, sample)
  }

  /** The candidate cells of `g` quantile ranges per input, counted as
    * `CsIo.build` finds them.
    */
  private def candidateCells(s: org.apache.spark.sql.DataFrame, t: org.apache.spark.sql.DataFrame,
                             band: BandSpec, g: Int): Int = {
    val sample = Samples.draw(s, t, Seq("a1"), band, 600, 600, seed = 3)
    val (sB, tB) = (CsIo.quantileBounds(sample.sPoints, g), CsIo.quantileBounds(sample.tPoints, g))
    val (sStats, tStats) = CsIo.rangeStats(s, t, Seq("a1"), sB, g, tB, g)
    CsIo.boxesJoinable(sStats, tStats, band).map(_.length).sum
  }

  test("lexCompare is a total order") {
    assert(CsIo.lexCompare(Array(1.0, 5.0), Array(1.0, 5.0)) == 0)
    assert(CsIo.lexCompare(Array(1.0, 5.0), Array(1.0, 6.0)) < 0)
    assert(CsIo.lexCompare(Array(2.0, 0.0), Array(1.0, 9.0)) > 0)
  }

  test("rangeOf respects boundaries") {
    val bounds = Array(Array(2.0), Array(5.0))
    assert(CsIo.rangeOf(bounds, Array(1.0)) == 0)
    assert(CsIo.rangeOf(bounds, Array(2.0)) == 1) // boundary belongs right
    assert(CsIo.rangeOf(bounds, Array(7.0)) == 2)
  }

  test("quantileBounds are sorted and within the data range") {
    val pts = PartitionLaws.cloud(200, 1, 1).map(p => WPoint(p._2, 1.0)).toArray
    val b = CsIo.quantileBounds(pts, 8)
    assert(b.length == 7)
    assert(b.zip(b.tail).forall { case (x, y) => CsIo.lexCompare(x, y) <= 0 })
  }

  test("builds at most w regions") {
    val s = TestData.randomDf(spark, 300, 1, 2)
    val t = TestData.randomDf(spark, 300, 1, 3)
    val r = build(s, t, Seq("a1"), BandSpec(Array(0.3)), 6)
    assert(r.numRegions <= 6 && r.numRegions >= 1)
  }

  test("exactly-once law on uniform 1D data") {
    val s = PartitionLaws.cloud(150, 1, 4)
    val t = PartitionLaws.cloud(150, 1, 5)
    val band = BandSpec(Array(0.4))
    val r = build(TestData.df(spark, s), TestData.df(spark, t), Seq("a1"), band, 6)
    PartitionLaws.checkAll(r, band, s, t)
  }

  test("exactly-once law on skewed 2D data") {
    val s = PartitionLaws.cloud(150, 2, 6, skewed = true)
    val t = PartitionLaws.cloud(150, 2, 7, skewed = true)
    val band = BandSpec(Array(0.5, 0.8))
    val r = build(TestData.df(spark, s), TestData.df(spark, t), Seq("a1", "a2"), band, 8)
    PartitionLaws.checkAll(r, band, s, t)
  }

  test("exactly-once law at band width zero") {
    val s = PartitionLaws.cloud(100, 1, 8).map { case (id, x) => (id, x.map(v => math.round(v).toDouble)) }
    val t = PartitionLaws.cloud(100, 1, 9).map { case (id, x) => (id, x.map(v => math.round(v).toDouble)) }
    val band = BandSpec(Array(0.0))
    val r = build(TestData.df(spark, s), TestData.df(spark, t), Seq("a1"), band, 4)
    PartitionLaws.checkAll(r, band, s, t)
  }

  test("wider bands densify the candidate matrix (optimization-cost driver)") {
    val s = TestData.randomDf(spark, 400, 1, 10).cache()
    val t = TestData.randomDf(spark, 400, 1, 11).cache()
    val narrow = candidateCells(s, t, BandSpec(Array(0.05)), 32)
    val wide = candidateCells(s, t, BandSpec(Array(1.0)), 32)
    assert(wide > narrow, s"expected denser matrix for wider band: $wide vs $narrow")
  }

  test("disjoint inputs yield an inert region for every tuple") {
    val s = PartitionLaws.cloud(50, 1, 14, 0, 1)
    val t = PartitionLaws.cloud(50, 1, 15, 50, 51)
    val band = BandSpec(Array(0.1))
    val r = build(TestData.df(spark, s), TestData.df(spark, t), Seq("a1"), band, 4)
    PartitionLaws.checkAssignmentsNonEmpty(r, s, t)
  }

  test("boxes a matching pair apart by exactly ε after rounding are joinable") {
    // t − ε rounds above s, but |s − t| rounds to ε, so the pair matches.
    val (s, t, band) = (2.0308902962218234, 1002.0308902962219, BandSpec(Array(1000.0)))
    assert(band.matches(Array(s), Array(t)))
    assert(CsIo.boxesJoinable(Array(EpsEdgeTest.box(s)), Array(EpsEdgeTest.box(t)), band)
      .map(_.toSeq).toSeq == Seq(Seq(0)))
    assert(CsIo.boxesJoinable(Array(EpsEdgeTest.box(t)), Array(EpsEdgeTest.box(s)), band)
      .map(_.toSeq).toSeq == Seq(Seq(0)))
  }
}
