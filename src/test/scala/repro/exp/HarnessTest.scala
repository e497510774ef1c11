package repro.exp

import org.apache.spark.sql.Dataset
import org.apache.spark.storage.StorageLevel
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
      assert(r.i >= r.sCount + r.tCount, s"${r.strategy}: I below lower bound")
      assert(r.outCount == prep.pairs.count(), s"${r.strategy}: wrong output count")
      assert(r.predT > 0)
      assert(r.timing.optMs.exists(_ >= 0), s"${r.strategy}: no optimization time")
    }
  }

  test("RecPart-S achieves lower duplication than 1-Bucket") {
    val rec = Harness.recPart(prep, symmetric = false)
    val ob = Harness.oneBucket(prep)
    assert(rec.i < ob.i)
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
    assert(r.i >= r.sCount + r.tCount)
    assert(r.strategy == "IEJoin(100)")
  }

  test("run unpersists S, T and the pair set when it returns and when a strategy throws") {
    def cfg(seed: Int) = ExpConfig("leak", TestData.randomDf(spark, 200, 1, seed),
      TestData.randomDf(spark, 200, 1, seed + 1), Seq("a1"), BandSpec(Array(0.2)), w = 4,
      kIn = 200, kOut = 200)
    def assertReleased(c: ExpConfig, pairs: Dataset[PairRow]): Unit =
      for ((name, ds) <- Seq(("S", c.s), ("T", c.t), ("pairs", pairs)))
        assert(ds.storageLevel == StorageLevel.NONE, s"$name still cached")

    val ok = cfg(5)
    var pairs: Dataset[PairRow] = null
    val rows = Harness.run(ok) { p =>
      pairs = p.pairs
      assert(Seq(ok.s, ok.t, pairs).forall(_.storageLevel != StorageLevel.NONE))
      Seq(Harness.recPart(p, symmetric = true), Harness.oneBucket(p))
    }
    assert(rows.map(_.strategy) == Seq("RecPart", "1-Bucket"))
    assert(rows.map(_.rel) == Seq(Some(1.0), Some(rows(1).predT / rows(0).predT)))
    assertReleased(ok, pairs)

    val failing = cfg(7)
    val e = intercept[IllegalStateException] {
      Harness.run(failing) { p =>
        pairs = p.pairs
        throw new IllegalStateException("strategy failed")
      }
    }
    assert(e.getMessage == "strategy failed")
    assertReleased(failing, pairs)
  }
}
