package repro.baselines

import repro.{SparkSpec, TestData}
import repro.core._

class IEJoinPartTest extends SparkSpec {

  private def build(s: org.apache.spark.sql.DataFrame, t: org.apache.spark.sql.DataFrame,
                    band: BandSpec, w: Int, spb: Int) = {
    val sample = Samples.draw(s, t, Seq("a1"), band, 400, 400, seed = 5)
    IEJoinPart.build(s, t, Seq("a1"), band, w, spb, sample)
  }

  test("blockOf respects boundaries") {
    // IEJoin's blocks are A1 ranges: one-element bounds, looked up by CsIo.rangeOf
    val b = Array(Array(1.0), Array(3.0))
    assert(CsIo.rangeOf(b, Array(0.5)) == 0)
    assert(CsIo.rangeOf(b, Array(1.0)) == 1)
    assert(CsIo.rangeOf(b, Array(5.0)) == 2)
    // only A1 of a multi-dimensional point decides its block
    assert(CsIo.rangeOf(b, Array(0.5, 9.0, 9.0)) == 0)
    assert(CsIo.rangeOf(b, Array(1.0, -9.0, -9.0)) == 1)
    assert(CsIo.rangeOf(b, Array(3.0, -9.0, 0.0)) == 2)
  }

  test("smaller sizePerBlock creates more tasks") {
    val s = TestData.randomDf(spark, 500, 1, 1).cache()
    val t = TestData.randomDf(spark, 500, 1, 2).cache()
    val band = BandSpec(Array(0.2))
    val coarse = build(s, t, band, 6, 250)
    val fine = build(s, t, band, 6, 50)
    assert(fine.numRegions > coarse.numRegions)
  }

  test("exactly-once law on uniform data") {
    val s = PartitionLaws.cloud(200, 1, 3)
    val t = PartitionLaws.cloud(200, 1, 4)
    val band = BandSpec(Array(0.3))
    val part = build(TestData.df(spark, s), TestData.df(spark, t), band, 5, 60)
    PartitionLaws.checkAll(part, band, s, t)
  }

  test("exactly-once law on skewed data with larger bands") {
    val s = PartitionLaws.cloud(180, 1, 5, skewed = true)
    val t = PartitionLaws.cloud(180, 1, 6, skewed = true)
    val band = BandSpec(Array(1.5))
    val part = build(TestData.df(spark, s), TestData.df(spark, t), band, 6, 40)
    PartitionLaws.checkAll(part, band, s, t)
  }

  test("multi-dimension bands only prune on A1 (conservative)") {
    val s = PartitionLaws.cloud(120, 3, 7)
    val t = PartitionLaws.cloud(120, 3, 8)
    val band = BandSpec(Array(0.5, 0.5, 0.5))
    val sDf = TestData.df(spark, s); val tDf = TestData.df(spark, t)
    val sample = Samples.draw(sDf, tDf, TestData.dims(3), band, 300, 300, seed = 9)
    val part = IEJoinPart.build(sDf, tDf, TestData.dims(3), band, 4, 40, sample)
    PartitionLaws.checkAll(part, band, s, t)
  }

  test("build runs one Spark job, the range statistics") {
    val s = TestData.randomDf(spark, 300, 2, 5, skewed = true).cache()
    val t = TestData.randomDf(spark, 300, 2, 6, skewed = true).cache()
    val band = BandSpec(Array(0.3, 0.6))
    val sample = Samples.draw(s, t, TestData.dims(2), band, 600, 600, seed = 7)
    assert(sparkJobs { IEJoinPart.build(s, t, TestData.dims(2), band, 8, 64, sample) } == 1)
  }

  test("single block degenerates to one task") {
    val s = PartitionLaws.cloud(30, 1, 10)
    val t = PartitionLaws.cloud(30, 1, 11)
    val band = BandSpec(Array(0.5))
    val part = build(TestData.df(spark, s), TestData.df(spark, t), band, 4, 1000)
    assert(part.numRegions == 1)
    PartitionLaws.checkAll(part, band, s, t)
  }
}
