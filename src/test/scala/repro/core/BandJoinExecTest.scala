package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestData}
import repro.baselines._

/** The correctness matrix: every partitioning strategy × every test
  * instance, executed through the distributed pipeline and compared
  * against DuckDB's answer for the same band-join.
  */
class BandJoinExecTest extends SparkSpec {

  private val w = 8

  private def strategies(name: String, s: DataFrame, t: DataFrame,
                         dims: Seq[String], band: BandSpec): Seq[(String, BandPartitioning)] = {
    val sample = Samples.draw(s, t, dims, band, 600, 600, seed = 7)
    val region = RecPart.exactBounds(s, t, dims)
    val recS = RecPart.optimize(sample, region, band,
      RecPartConfig(w, symmetric = false)).partitioning
    val rec = RecPart.optimize(sample, region, band,
      RecPartConfig(w, symmetric = true)).partitioning
    val cs = CsIo.build(s, t, dims, band, w, sample, g0 = 24).part
    val ie = IEJoinPart.build(s, t, dims, band, w, sizePerBlock = 64, sample)._1
    val base = Seq(
      "RecPart-S" -> (recS: BandPartitioning),
      "RecPart" -> rec,
      "1-Bucket" -> OneBucket.forWorkers(w),
      "CS_IO" -> cs,
      "IEJoin" -> ie)
    if (band.eps.forall(_ > 0)) base :+ ("Grid-eps" -> (GridEps(band, w): BandPartitioning))
    else base
  }

  for ((name, s0, t0, dims, band) <- TestData.instances(SparkSpec.shared)) {
    val s = s0.cache(); val t = t0.cache()
    lazy val strat = strategies(name, s, t, dims, band)
    lazy val expectedCount: Long =
      BandJoinExec.pairIds(s, t, dims, band, OneBucket.forWorkers(4)).count()

    for (stratName <- Seq("RecPart-S", "RecPart", "1-Bucket", "CS_IO", "IEJoin", "Grid-eps")) {
      test(s"$name / $stratName matches DuckDB and produces no duplicates") {
        strat.find(_._1 == stratName) match {
          case None => assert(band.eps.exists(_ == 0), "only Grid-eps may be absent")
          case Some((_, part)) =>
            val pairs = BandJoinExec.pairIds(s, t, dims, band, part).cache()
            val n = pairs.count()
            assert(pairs.distinct().count() == n, "duplicate output pairs")
            assert(n == expectedCount, s"pair count $n != $expectedCount")
            Oracle.assertEquivalent(pairs, BandJoinExec.oracleSql(dims, band),
              "s" -> s, "t" -> t)
            pairs.unpersist()
        }
      }
    }
  }

  test("routing explodes every tuple at least once") {
    val s = TestData.randomDf(spark, 100, 1, 99)
    val band = BandSpec(Array(0.1))
    val part = OneBucket.forWorkers(4)
    val routed = BandJoinExec.route(s, Seq("a1"), 0, part)
    assert(routed.count() == 100 * part.c)
  }

  test("a null join attribute is rejected with its column name") {
    import spark.implicits._
    val s = Seq((1L, Option(0.5)), (2L, Option.empty[Double])).toDF("id", "a1")
    val t = Seq((3L, Option(0.4))).toDF("id", "a1")
    val band = BandSpec(Array(0.2))
    val part = OneBucket.forWorkers(4)
    def rejected(body: => Any): Boolean =
      Iterator.iterate[Throwable](intercept[Exception](body))(_.getCause).takeWhile(_ != null)
        .exists(e => String.valueOf(e.getMessage).contains("null in join attribute a1"))
    assert(rejected(BandJoinExec.pairs(s, t, Seq("a1"), band, part).count()))
    assert(rejected(Metrics.compute(s, t, Seq("a1"), part,
      BandJoinExec.pairs(t, t, Seq("a1"), band, part))))
  }

  test("empty inputs: RecPart gives finite estimates and the join gives no pairs") {
    val dims = Seq("a1", "a2")
    val band = BandSpec(Array(0.5, 0.5))
    val full = TestData.randomDf(spark, 60, 2, 103)
    val empty = full.limit(0)
    for ((label, s, t) <- Seq(("both empty", empty, empty), ("S empty", empty, full),
                              ("T empty", full, empty))) {
      val res = RecPart.fromDataFrames(s, t, dims, band, RecPartConfig(w))
      if (label == "both empty")
        assert(SplitTree.leaves(res.partitioning.root).size == 1, label)
      def finite(p: Product): Boolean = p.productIterator.forall {
        case v: Double => !v.isNaN && !v.isInfinite
        case _ => true
      }
      assert(finite(res.est), s"$label: ${res.est}")
      val pairs = BandJoinExec.pairs(s, t, dims, band, res.partitioning)
      assert(pairs.count() == 0, label)
      val m = Metrics.compute(s, t, dims, res.partitioning, pairs)
      assert(finite(m), s"$label: $m")
    }
  }

  test("disjoint inputs produce empty output under every strategy") {
    val s = TestData.randomDf(spark, 80, 1, 101, lo = 0, hi = 1)
    val t = TestData.randomDf(spark, 80, 1, 102, lo = 100, hi = 101)
    val band = BandSpec(Array(0.5))
    for ((_, part) <- strategies("disjoint", s, t, Seq("a1"), band)) {
      assert(BandJoinExec.pairIds(s, t, Seq("a1"), band, part).count() == 0)
    }
  }
}
