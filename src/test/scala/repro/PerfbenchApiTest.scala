package repro

import repro.core._
import repro.data.BandSynth

/** The benchmark's API, as `perfbench/src` uses it: each call it makes,
  * with the same argument shapes, and each field it reads, on
  * TestData's small pareto-3d instance. The test suite does not compile
  * `perfbench/`, so a change that breaks the benchmark fails here
  * instead of at benchmark time. A change to perfbench's calls must
  * change this test with them.
  */
class PerfbenchApiTest extends SparkSpec {

  test("every call perfbench makes compiles and runs") {
    val d = 3
    val dims: Seq[String] = BandSynth.dims(d)
    val band: BandSpec = BandSpec.uniform(d, 1.0)
    val s = BandSynth.pareto(spark, 300L, 1.5, d, 11L).cache()
    val t = BandSynth.pareto(spark, 300L, 1.5, d, 12L).cache()
    assert(BandSynth.rvPareto(spark, 300L, 1.5, d, 13L).count() == 300)
    val config = RecPartConfig(8, symmetric = true, gridFallback = true)

    val sample: JoinSample = Samples.draw(s, t, dims, band, 600, 600, 42L)
    val pairSampleSize: Int = sample.pairs.length
    val region: Region = RecPart.exactBounds(s, t, dims)
    val res: RecPartResult = RecPart.optimize(sample, region, band, config)
    val (iterations, chosen): (Int, Int) = (res.iterations, res.chosenIteration)
    val estLm: Double = res.est.estLm
    val partitions: Int = SplitTree.numPids(res.partitioning.root)
    assert(pairSampleSize > 0 && chosen <= iterations && estLm > 0 && partitions >= 1)

    val part: BandPartitioning = res.partitioning
    val out = BandJoinExec.pairs(s, t, dims, band, part)
    val routed = BandJoinExec.route(s, dims, 0, part).union(BandJoinExec.route(t, dims, 1, part))
    val replayed = routed.collect().groupBy(_.pid).values.map { rows =>
      val (sr, tr) = rows.partition(_.side == 0)
      LocalJoin.join(sr.map(_.x), tr.map(_.x), band).length.toLong
    }.sum
    assert(replayed == out.count())

    val m: PartMetrics = Metrics.compute(s, t, dims, part, out)
    val read: Seq[Double] = Seq(m.i.toDouble / m.inputLowerBound, m.lm / m.l0,
      CostModel.default.predict(m.i.toDouble, m.im.toDouble, m.om.toDouble),
      m.dupOverhead, m.loadOverhead)
    assert(read.forall(v => !v.isNaN))
    import spark.implicits._
    assert(out.union(Seq(PairRow(0L, 0L, Array(0.0), Array(0.0))).toDS()).count() == replayed + 1)
    s.unpersist(); t.unpersist()
  }
}
