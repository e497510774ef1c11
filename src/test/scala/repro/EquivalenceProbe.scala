package repro

import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import repro.baselines.{CsIo, GridEps, IEJoinPart, OneBucket}
import repro.core._
import repro.data.BandSynth
import scala.util.Random

/** Prints `probe <case> result <md5>` lines: digests of what the
  * optimizer, the sampler and every partitioning strategy compute. Run it
  * at two commits and compare the output to show that a refactoring kept
  * results byte-identical:
  *
  * {{{
  * sbt "Test/runMain repro.EquivalenceProbe" | grep -o 'probe .*' > digests.txt
  * }}}
  *
  * An optimizer case also prints a `probe <case> run <md5>` line. Its
  * `result` line digests what the optimizer returns: the root, the worker
  * map, the chosen iteration, its estimate and the trajectory up to it.
  * The `run` line digests how far it ran: the iteration count and the
  * whole trajectory. A change to when the loop stops moves only the run
  * line.
  *
  * Case sets:
  *  - `optimize/<k>`: `RecPart.optimize` on fixed-seed full samples (d 1–3;
  *    uniform, Pareto, clique and ε-lattice data with ±1e-17 and ±1-ulp
  *    jitter; ε = 0 dimensions; per-side non-integer weights; w 1–40;
  *    random variant, termination rule and cost model);
  *  - `draw/<workload>`: `Samples.draw` and `RecPart.optimize` on the
  *    benchmark's three workloads at data seed 1001 (kIn = kOut = 8000,
  *    draw seed 42, w = 30);
  *  - `strategy/<instance>/<strategy>`: for each strategy on each
  *    `TestData` instance, every tuple's `assignS` / `assignT`, every
  *    partition's worker and every joining pair's `pairPartition`.
  *
  * An object with a `main`, not a suite: `testOnly` does not run it.
  */
object EquivalenceProbe {

  private final class Digest {
    private val md = MessageDigest.getInstance("MD5")
    def add(v: Any): Digest = {
      md.update(String.valueOf(v).getBytes("UTF-8")); md.update('\n'.toByte); this
    }
    def bits(x: Array[Double]): Digest =
      add(x.map(java.lang.Double.doubleToRawLongBits).mkString(","))
    def hex: String = md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def emit(name: String, d: Digest): Unit = println(s"probe $name result ${d.hex}")

  /** Emits the `result` line of `d` extended by `r`, and its `run` line. */
  private def emitRun(name: String, d: Digest, r: RecPartResult): Unit = {
    emit(name, d.add(r.partitioning.root).add(r.partitioning.pidWorker.mkString(","))
      .add(r.chosenIteration).add(r.est).add(r.trajectory.take(r.chosenIteration + 1).mkString(";")))
    val run = new Digest().add(r.iterations).add(r.trajectory.mkString(";"))
    println(s"probe $name run ${run.hex}")
  }

  // ----- optimize/<k> --------------------------------------------------

  private def jitter(rnd: Random, v: Double): Double = rnd.nextInt(5) match {
    case 0 => v + 1e-17
    case 1 => v - 1e-17
    case 2 => Math.nextUp(v)
    case 3 => Math.nextDown(v)
    case _ => v
  }

  private def points(rnd: Random, family: Int, n: Int, d: Int, pitch: Double): Seq[Array[Double]] = {
    val centre = Array.fill(d)(rnd.nextDouble() * 10)
    Seq.fill(n)(family match {
      case 0 => Array.fill(d)(rnd.nextDouble() * 10)
      case 1 => Array.fill(d)(math.pow(1 - rnd.nextDouble(), -1 / 1.5))
      case 2 => if (rnd.nextInt(3) == 0) centre.clone() else Array.fill(d)(rnd.nextDouble() * 10)
      case _ => Array.fill(d)(math.round(rnd.nextDouble() * 40) * pitch)
    }).map(_.map(v => if (rnd.nextBoolean()) jitter(rnd, v) else v))
  }

  private def optimizeCase(k: Int): Unit = {
    val rnd = new Random(1000L + k)
    val d = 1 + rnd.nextInt(3)
    val family = rnd.nextInt(4)
    val pitch = Seq(0.1, 0.25, 1.0 / 3)(rnd.nextInt(3))
    val band = BandSpec(Array.fill(d)(rnd.nextInt(6) match {
      case 0 => 0.0
      case 1 | 2 => pitch * (1 + rnd.nextInt(3))
      case _ => rnd.nextDouble() * 2
    }))
    val s = points(rnd, family, 5 + rnd.nextInt(60), d, pitch)
    val t = points(rnd, family, 5 + rnd.nextInt(60), d, pitch)
    val (sW, tW) = if (rnd.nextBoolean()) (1.0, 1.0) else (0.5 + rnd.nextDouble() * 3, 0.5 + rnd.nextDouble() * 3)
    val sp = s.map(WPoint(_, sW)).toArray
    val tp = t.map(WPoint(_, tW)).toArray
    val pairs = for (a <- sp; b <- tp if band.matches(a.x, b.x)) yield WPair(a.x, b.x, sW * tW)
    val all = s ++ t
    val region = Region(Array.tabulate(d)(i => all.map(_(i)).min), Array.tabulate(d)(i => all.map(_(i)).max))
    val sample = JoinSample(sp, tp, pairs, math.round(s.size * sW), math.round(t.size * tW), region)
    val model = rnd.nextInt(3) match {
      case 0 => CostModel.default
      case 1 => CostModel.paperStyle(rnd.nextDouble(), 0.1 + rnd.nextDouble())
      case _ => CostModel(rnd.nextDouble(), rnd.nextDouble(), 0.1 + rnd.nextDouble() * 5, 0.1 + rnd.nextDouble())
    }
    val cfg = RecPartConfig(1 + rnd.nextInt(40), symmetric = rnd.nextBoolean(), costModel = model,
      termination = if (rnd.nextBoolean()) Termination.Applied else Termination.Theoretical,
      gridFallback = rnd.nextBoolean())
    emitRun(s"optimize/$k", new Digest, RecPart.optimize(sample, region, band, cfg))
  }

  // ----- draw/<workload> -----------------------------------------------

  private def drawCase(name: String, d: Int, eps: Double, reverseT: Boolean,
                       symmetric: Boolean): Unit = {
    val spark = SparkSpec.shared
    val s = BandSynth.pareto(spark, 100000L, 1.5, d, 1001).cache()
    val t = (if (reverseT) BandSynth.rvPareto(spark, 100000L, 1.5, d, 2002)
             else BandSynth.pareto(spark, 100000L, 1.5, d, 2002)).cache()
    val band = BandSpec.uniform(d, eps)
    val sample = Samples.draw(s, t, BandSynth.dims(d), band, 8000, 8000, 42L)
    val dg = new Digest().add(sample.sCount).add(sample.tCount)
    for (p <- sample.sPoints ++ sample.tPoints) dg.bits(p.x).add(p.weight)
    for (p <- sample.pairs) dg.bits(p.s).bits(p.t).add(p.weight)
    dg.bits(sample.region.lo).bits(sample.region.hi)
    emitRun(s"draw/$name", dg, RecPart.optimize(sample, sample.region, band,
      RecPartConfig(30, symmetric = symmetric, gridFallback = symmetric)))
    s.unpersist(); t.unpersist()
  }

  // ----- strategy/<instance>/<strategy> --------------------------------

  private def strategies(s: DataFrame, t: DataFrame, dims: Seq[String],
                         band: BandSpec): Seq[(String, BandPartitioning)] = {
    val w = 8
    val sample = Samples.draw(s, t, dims, band, 600, 600, seed = 7)
    def rec(symmetric: Boolean): BandPartitioning = RecPart.optimize(sample, sample.region, band,
      RecPartConfig(w, symmetric = symmetric, gridFallback = symmetric)).partitioning
    Seq(
      "RecPart-S" -> rec(false),
      "RecPart" -> rec(true),
      "1-Bucket" -> OneBucket.forWorkers(w),
      "CS_IO-default-g" -> CsIo.build(s, t, dims, band, w, sample),
      "IEJoin" -> IEJoinPart.build(s, t, dims, band, w, sizePerBlock = 64, sample),
    ) ++ (if (band.eps.forall(_ > 0)) Seq("Grid-eps" -> GridEps(band, w)) else Nil)
  }

  private def strategyCase(part: BandPartitioning, band: BandSpec,
                           s: Array[(Long, Array[Double])], t: Array[(Long, Array[Double])]): Digest = {
    val dg = new Digest
    val pids = scala.collection.mutable.TreeSet.empty[Int]
    for ((id, x) <- s) { val a = part.assignS(x, id); pids ++= a; dg.add(a.mkString(",")) }
    for ((id, x) <- t) { val a = part.assignT(x, id); pids ++= a; dg.add(a.mkString(",")) }
    for (p <- pids) dg.add(s"$p>${part.partitionWorker(p)}")
    for ((sid, sx) <- s; (tid, tx) <- t if band.matches(sx, tx))
      dg.add(part.pairPartition(sx, sid, tx, tid))
    dg
  }

  def main(args: Array[String]): Unit = {
    for (k <- 0 until 450) optimizeCase(k)

    drawCase("pareto3d", 3, 0.0352266860, reverseT = false, symmetric = false)
    drawCase("pareto8d", 8, 0.2717674173, reverseT = false, symmetric = true)
    drawCase("rvpareto3d", 3, 1000.0, reverseT = true, symmetric = true)

    for ((name, s0, t0, dims, band) <- TestData.instances(SparkSpec.shared)) {
      val (s, t) = (s0.cache(), t0.cache())
      def tuples(df: DataFrame) = BandJoinExec.tuples(df, dims).collect().sortBy(_._1)
      val (sx, tx) = (tuples(s), tuples(t))
      for ((strat, part) <- strategies(s, t, dims, band))
        emit(s"strategy/$name/$strat", strategyCase(part, band, sx, tx))
      s.unpersist(); t.unpersist()
    }
    SparkSpec.shared.stop()
  }
}
