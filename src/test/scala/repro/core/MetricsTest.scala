package repro.core

import repro.{SparkSpec, TestData}
import repro.baselines.{GridEps, OneBucket}

class MetricsTest extends SparkSpec {

  private def bruteMetrics(part: BandPartitioning, band: BandSpec,
                           s: Seq[(Long, Array[Double])],
                           t: Seq[(Long, Array[Double])]): PartMetrics = {
    val load = CostModel.default
    val w = part.numWorkers
    val inByPid = scala.collection.mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    val outByPid = scala.collection.mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    var i = 0L
    for ((id, x) <- s; p <- part.assignS(x, id)) { inByPid(p) += 1; i += 1 }
    for ((id, x) <- t; p <- part.assignT(x, id)) { inByPid(p) += 1; i += 1 }
    for ((sid, sx) <- s; (tid, tx) <- t if band.matches(sx, tx))
      outByPid(part.pairPartition(sx, sid, tx, tid)) += 1
    val pids = (inByPid.keySet ++ outByPid.keySet).toArray.sorted
    val sch = Lpt.schedule(pids.map(inByPid(_).toDouble), pids.map(outByPid(_).toDouble), w, load)
    val (in, out, mx) = (sch.in.map(_.toLong), sch.out.map(_.toLong), sch.top)
    val l0 = load.lowerBound(s.size, t.size, out.sum.toDouble, w)
    PartMetrics(s.size, t.size, out.sum, i, in(mx), out(mx), sch.load(mx), l0,
      (i - (s.size + t.size).toDouble) / (s.size + t.size),
      (sch.load(mx) - l0) / l0, in, out)
  }

  test("Metrics.compute matches brute force for 1-Bucket") {
    val band = BandSpec(Array(0.3))
    val s = PartitionLaws.cloud(150, 1, 1)
    val t = PartitionLaws.cloud(150, 1, 2)
    val part = OneBucket.forWorkers(6)
    val sDf = TestData.df(spark, s); val tDf = TestData.df(spark, t)
    val pairs = BandJoinExec.pairs(sDf, tDf, Seq("a1"), band, part)
    val got = Metrics.compute(sDf, tDf, Seq("a1"), part, pairs)
    val exp = bruteMetrics(part, band, s, t)
    assert(got.i == exp.i && got.im == exp.im && got.om == exp.om)
    assert(got.outCount == exp.outCount)
    assert(math.abs(got.lm - exp.lm) < 1e-9)
  }

  test("Metrics.compute matches brute force for Grid-eps (2D)") {
    val band = BandSpec(Array(0.5, 0.5))
    val s = PartitionLaws.cloud(120, 2, 3)
    val t = PartitionLaws.cloud(120, 2, 4)
    val part = GridEps(band, 5)
    val sDf = TestData.df(spark, s); val tDf = TestData.df(spark, t)
    val pairs = BandJoinExec.pairs(sDf, tDf, Seq("a1", "a2"), band, part)
    val got = Metrics.compute(sDf, tDf, Seq("a1", "a2"), part, pairs)
    val exp = bruteMetrics(part, band, s, t)
    assert(got.i == exp.i && got.im == exp.im && got.om == exp.om)
    assert(got.perWorkerInput.toSeq == exp.perWorkerInput.toSeq)
    assert(got.perWorkerOutput.toSeq == exp.perWorkerOutput.toSeq)
  }

  test("uniform-proxy path reports exact I and I/w per worker") {
    val band = BandSpec(Array(0.5))
    val s = PartitionLaws.cloud(100, 1, 5)
    val t = PartitionLaws.cloud(100, 1, 6)
    val part = OneBucket.forWorkers(4)
    val sDf = TestData.df(spark, s); val tDf = TestData.df(spark, t)
    val pairs = BandJoinExec.pairs(sDf, tDf, Seq("a1"), band, part)
    val got = Metrics.compute(sDf, tDf, Seq("a1"), part, pairs, explodeLimit = 1L)
    val exactI = bruteMetrics(part, band, s, t).i
    assert(got.i == exactI)
    assert(got.perWorkerInput.sum == exactI)
    assert(got.perWorkerInput.max - got.perWorkerInput.min <= 1)
  }

  test("metrics satisfy Lemma 1 lower bounds") {
    val band = BandSpec(Array(0.4))
    val sDf = TestData.randomDf(spark, 200, 1, 7)
    val tDf = TestData.randomDf(spark, 200, 1, 8)
    for (part <- Seq(OneBucket.forWorkers(6), GridEps(band, 6))) {
      val pairs = BandJoinExec.pairs(sDf, tDf, Seq("a1"), band, part)
      val m = Metrics.compute(sDf, tDf, Seq("a1"), part, pairs)
      assert(m.i >= m.inputLowerBound)
      assert(m.lm >= m.l0 - 1e-9)
      assert(m.dupOverhead >= 0 && m.loadOverhead >= -1e-9)
    }
  }

  test("Metrics.compute runs 3 Spark jobs, 2 past explodeLimit") {
    val band = BandSpec(Array(0.5))
    val sDf = TestData.randomDf(spark, 100, 1, 9).cache()
    val tDf = TestData.randomDf(spark, 100, 1, 10).cache()
    val part = OneBucket.forWorkers(4)
    val pairs = BandJoinExec.pairs(sDf, tDf, Seq("a1"), band, part).cache()
    pairs.count()
    assert(sparkJobs { Metrics.compute(sDf, tDf, Seq("a1"), part, pairs) } == 3)
    assert(sparkJobs { Metrics.compute(sDf, tDf, Seq("a1"), part, pairs, explodeLimit = 1L) } == 2)
  }
}
