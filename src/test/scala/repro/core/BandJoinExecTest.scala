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
    val recS = RecPart.optimize(sample, sample.region, band,
      RecPartConfig(w, symmetric = false)).partitioning
    val rec = RecPart.optimize(sample, sample.region, band,
      RecPartConfig(w, symmetric = true)).partitioning
    val cs = CsIo.build(s, t, dims, band, w, sample)
    val ie = IEJoinPart.build(s, t, dims, band, w, sizePerBlock = 64, sample)
    val base = Seq(
      "RecPart-S" -> (recS: BandPartitioning),
      "RecPart" -> rec,
      "1-Bucket" -> OneBucket.forWorkers(w),
      "CS_IO" -> cs,
      "IEJoin" -> ie)
    if (band.eps.forall(_ > 0)) base :+ ("Grid-eps" -> (GridEps(band, w): BandPartitioning))
    else base
  }

  /** True iff `body` throws with `message` somewhere in its cause chain. */
  private def failsWith(message: String)(body: => Any): Boolean =
    Iterator.iterate[Throwable](intercept[Exception](body))(_.getCause).takeWhile(_ != null)
      .exists(e => String.valueOf(e.getMessage).contains(message))

  for ((name, s0, t0, dims, band) <- TestData.instances(SparkSpec.shared)) {
    val s = s0.cache(); val t = t0.cache()
    lazy val strat = strategies(name, s, t, dims, band)
    lazy val expectedCount: Long =
      Oracle.pairIds(s, t, dims, band, OneBucket.forWorkers(4)).count()
    lazy val expected = Oracle.duckdb(Oracle.oracleSql(dims, band), "s" -> s, "t" -> t)

    for (stratName <- Seq("RecPart-S", "RecPart", "1-Bucket", "CS_IO", "IEJoin", "Grid-eps")) {
      test(s"$name / $stratName matches DuckDB and produces no duplicates") {
        strat.find(_._1 == stratName) match {
          case None => assert(band.eps.exists(_ == 0), "only Grid-eps may be absent")
          case Some((_, part)) =>
            val pairs = Oracle.pairIds(s, t, dims, band, part).cache()
            val n = pairs.count()
            assert(pairs.distinct().count() == n, "duplicate output pairs")
            assert(n == expectedCount, s"pair count $n != $expectedCount")
            Oracle.assertMatches(pairs, expected)
            pairs.unpersist()
        }
      }
    }
  }

  test("routing explodes every tuple at least once") {
    val s = TestData.randomDf(spark, 100, 1, 99)
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
    def rejected(body: => Any): Boolean = failsWith("null in join attribute a1")(body)
    assert(rejected(BandJoinExec.pairs(s, t, Seq("a1"), band, part).count()))
    assert(rejected(RecPart.exactBounds(s, t, Seq("a1"))))
    assert(rejected(RecPart.exactBounds(t, s, Seq("a1"))))
    assert(rejected(Samples.draw(s, t, Seq("a1"), band, 100, 100)))
    // The baselines read the full inputs with a sample of clean data.
    val clean = Samples.draw(t, t, Seq("a1"), band, 100, 100)
    assert(rejected(CsIo.build(s, t, Seq("a1"), band, 4, clean)))
    assert(rejected(IEJoinPart.build(s, t, Seq("a1"), band, 4, sizePerBlock = 64, clean)))
    assert(rejected(Metrics.compute(s, t, Seq("a1"), part,
      BandJoinExec.pairs(t, t, Seq("a1"), band, part))))
    val noId = Seq((Option.empty[Long], 0.5)).toDF("id", "a1")
    assert(failsWith("null id")(BandJoinExec.pairs(noId, t, Seq("a1"), band, part).count()))
  }

  test("each Spark partition of the output is one worker") {
    val (name, s, t, dims, band) = TestData.instances(spark)(2)
    for ((stratName, part) <- strategies(name, s, t, dims, band)
         if Seq("RecPart", "1-Bucket", "CS_IO").contains(stratName)) {
      val pairs = BandJoinExec.pairs(s, t, dims, band, part)
      assert(pairs.rdd.getNumPartitions == part.numWorkers, stratName)
      val placed = pairs.rdd.mapPartitionsWithIndex((k, it) => it.map(p => (k, p))).collect()
      assert(placed.nonEmpty, stratName)
      for ((k, p) <- placed)
        assert(part.partitionWorker(part.pairPartition(p.s, p.sid, p.t, p.tid)) == k,
          s"$stratName: pair (${p.sid}, ${p.tid}) in Spark partition $k")
    }
  }

  test("a worker outside [0, w) is rejected with the partition, worker and w") {
    val stub = new BandPartitioning {
      def numWorkers: Int = 4
      def assignS(x: Array[Double], salt: Long): Array[Int] = Array(if (salt == 0) 7 else 0)
      def assignT(x: Array[Double], salt: Long): Array[Int] = Array(0, 7)
      def partitionWorker(pid: Int): Int = if (pid == 7) 4 else 0
      def pairPartition(s: Array[Double], sSalt: Long, t: Array[Double], tSalt: Long): Int =
        if (sSalt == 0) 7 else 0
    }
    val s = TestData.randomDf(spark, 20, 1, 104)
    assert(failsWith("partition 7 maps to worker 4, outside [0, 4)")(
      BandJoinExec.pairs(s, s, Seq("a1"), BandSpec(Array(1.0)), stub).count()))
  }

  test("the shuffle returns ids and coordinates bit for bit") {
    val ids = Seq(Long.MinValue, Long.MaxValue, -1L, 0x7FF8000000000001L)
    val cs = Seq(-0.0, Double.MinPositiveValue, 1e308)
    val sIn = ids.zipWithIndex.map { case (id, i) => id -> Array(cs(i % 3), cs((i + 1) % 3)) }
    val tIn = ids.zipWithIndex.map { case (id, i) => id -> Array(cs((i + 2) % 3), cs(i % 3)) }
    val band = BandSpec(Array(1e308, 1e308))
    def bits(x: Array[Double]) = x.map(java.lang.Double.doubleToRawLongBits).toSeq
    val (sBits, tBits) = (sIn.toMap.view.mapValues(bits).toMap, tIn.toMap.view.mapValues(bits).toMap)
    // Above 200 reduce tasks Spark's shuffle sorts instead of writing one
    // file per task; both go through the same record streams.
    for (w <- Seq(4, 256)) {
      val pairs = BandJoinExec.pairs(TestData.df(spark, sIn), TestData.df(spark, tIn),
        Seq("a1", "a2"), band, OneBucket.forWorkers(w)).collect()
      assert(pairs.map(p => (p.sid, p.tid)).toSet == (for (a <- ids; b <- ids) yield (a, b)).toSet)
      assert(pairs.length == ids.length * ids.length)
      for (p <- pairs) {
        assert(bits(p.s) == sBits(p.sid), s"w = $w: s of (${p.sid}, ${p.tid})")
        assert(bits(p.t) == tBits(p.tid), s"w = $w: t of (${p.sid}, ${p.tid})")
      }
    }
  }

  test("empty inputs: RecPart gives finite estimates and the join gives no pairs") {
    val dims = Seq("a1", "a2")
    val band = BandSpec(Array(0.5, 0.5))
    val full = TestData.randomDf(spark, 60, 2, 103)
    val empty = full.limit(0)
    for ((label, s, t) <- Seq(("both empty", empty, empty), ("S empty", empty, full),
                              ("T empty", full, empty))) {
      val sample = Samples.draw(s, t, dims, band, 8000, 8000)
      val res = RecPart.optimize(sample, sample.region, band, RecPartConfig(w))
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
      assert(Oracle.pairIds(s, t, Seq("a1"), band, part).count() == 0)
    }
  }
}
