package repro.exp

import repro.{SparkSpec, TestData}
import repro.core._

class HarnessTest extends SparkSpec {

  private lazy val prep: PreparedExp = {
    val s = TestData.randomDf(spark, 600, 1, 1, skewed = true)
    val t = TestData.randomDf(spark, 600, 1, 2, skewed = true)
    Harness.prepare(ExpConfig("harness-test", s, t, Seq("a1"),
      BandSpec(Array(0.2)), w = 6, kIn = 600, kOut = 600))
  }

  test("prepare computes the exact pair set once") {
    assert(prep.pairs.count() > 0)
    assert(prep.sample.sCount == 600 && prep.sample.tCount == 600)
  }

  test("all strategies run and satisfy Lemma 1") {
    val results = Seq(
      Harness.recPart(prep, symmetric = false),
      Harness.recPart(prep, symmetric = true),
      Harness.csIo(prep),
      Harness.oneBucket(prep)) ++ Harness.gridEps(prep) ++ Harness.gridStar(prep)
    assert(results.size == 6)
    for (r <- results) {
      assert(r.m.i >= r.m.inputLowerBound, s"${r.name}: I below lower bound")
      assert(r.m.outCount == prep.pairs.count(), s"${r.name}: wrong output count")
      assert(r.predicted > 0)
    }
  }

  test("RecPart-S achieves lower duplication than 1-Bucket") {
    val rec = Harness.recPart(prep, symmetric = false)
    val ob = Harness.oneBucket(prep)
    assert(rec.m.i < ob.m.i)
  }

  test("gridEps is None for zero band width") {
    val s = TestData.randomDf(spark, 100, 1, 3)
    val t = TestData.randomDf(spark, 100, 1, 4)
    val p = Harness.prepare(ExpConfig("zero", s, t, Seq("a1"),
      BandSpec(Array(0.0)), w = 4, kIn = 200, kOut = 200))
    assert(Harness.gridEps(p).isEmpty)
    assert(Harness.gridStar(p).isEmpty)
  }

  test("ieJoin runs with a block-size parameter") {
    val r = Harness.ieJoin(prep, sizePerBlock = 100)
    assert(r.m.i >= r.m.inputLowerBound)
    assert(r.name.contains("100"))
  }
}
