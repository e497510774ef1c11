package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core._
import repro.data.BandSynth
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One benchmark workload: the two inputs, the band and the RecPart
  * variant. Band widths are fixed constants (from `Calibrate` at the
  * `Tables` seeds 1001/2002) so that a later change to calibration or to
  * the local join cannot silently change a workload.
  */
final case class Workload(name: String, d: Int, eps: Double, reverseT: Boolean,
                          symmetric: Boolean) {
  val dims: Seq[String] = BandSynth.dims(d)
  val band: BandSpec = BandSpec.uniform(d, eps)

  /** S is pareto-1.5 from `seed`; T is pareto-1.5 (or rv-pareto-1.5)
    * from `seed + 1001`, so seed 1001 gives the `Tables` inputs.
    */
  def inputs(spark: SparkSession, seed: Long): (DataFrame, DataFrame) = {
    val s = BandSynth.pareto(spark, BandBench.Rows, 1.5, d, seed)
    val t =
      if (reverseT) BandSynth.rvPareto(spark, BandBench.Rows, 1.5, d, seed + 1001)
      else BandSynth.pareto(spark, BandBench.Rows, 1.5, d, seed + 1001)
    (s, t)
  }

  /** As `Harness.recPart`: the symmetric variant also gets the 1-Bucket
    * fallback for wedged leaves.
    */
  def config: RecPartConfig =
    RecPartConfig(BandBench.Workers, symmetric = symmetric, gridFallback = symmetric)
}

/** Timings and results of one query and its evaluation. */
final case class QueryRun(traced: Boolean, querySec: Double, evalSec: Double,
                          metrics: PartMetrics, result: RecPartResult)

/** The band-join benchmark: runs one workload's query repeatedly on
  * cached inputs for a fixed time, checks each output against an
  * independent reference, and prints one JSON result as its last line.
  * See perfbench/README.md.
  */
object BandBench {
  val Rows = 100000L
  val Workers = 30
  val SampleSize = 8000
  /** `ExpConfig`'s default sample seed. */
  val SampleSeed = 42L
  /** Cores used, at most; `spark.default.parallelism` stays fixed, so the
    * generated inputs do not depend on the core count.
    */
  val MaxCores = 4
  val Parallelism = 4
  val ShufflePartitions = 64
  /** Input generations whose median time counts toward `setup_s`. */
  val SetupReps = 3

  val workloads: Seq[Workload] = Seq(
    // Table 2b row 2, RecPart-S: output-heavy, shuffle and pair encoding dominate.
    Workload("pareto3d", 3, 0.0352266860, reverseT = false, symmetric = false),
    // Table 4c ×1.0, RecPart: optimizer and local-join CPU dominate.
    Workload("pareto8d", 8, 0.2717674173, reverseT = false, symmetric = true),
    // Table 9, RecPart: zero output; sampling, bounds and routing dominate.
    Workload("rvpareto3d", 3, 1000.0, reverseT = true, symmetric = true))

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        work: File, out: File, build: String, commit: String)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String): String =
      kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = workloads.find(_.name == get("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${get("workload")}; known: ${workloads.map(_.name).mkString(", ")}"))
    require(Set("0", "1")(get("trace")), "--trace takes 0 or 1")
    Args(w, get("seed").toLong, get("seconds").toDouble, get("trace") == "1",
      new File(get("work")), new File(get("out")),
      kv.getOrElse("build", "unknown"), kv.getOrElse("commit", "unknown"))
  }

  def main(argv: Array[String]): Unit = {
    val args =
      try parse(argv)
      catch {
        case e: IllegalArgumentException =>
          Console.err.println(s"perfbench: ${e.getMessage}")
          sys.exit(2)
      }
    val cores = math.min(MaxCores, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.default.parallelism", Parallelism.toLong)
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(args.work, "spark").getPath)
      .config("spark.sql.warehouse.dir", new File(args.work, "warehouse").getPath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try new BandBench(spark, args, cores).run()
    finally spark.stop()
  }

  def median(xs: Seq[Double]): Double = {
    val v = xs.sorted
    if (v.isEmpty) Double.NaN
    else if (v.length % 2 == 1) v(v.length / 2)
    else (v(v.length / 2 - 1) + v(v.length / 2)) / 2
  }
}

final class BandBench(spark: SparkSession, args: BandBench.Args, cores: Int) {
  import BandBench._

  private val w = args.workload
  private val tracer = new Tracer(spark, args.trace)
  private var s: DataFrame = _
  private var t: DataFrame = _
  private var ref: Dataset[PairRow] = _
  private var refDigest: Digest = _
  private var attempted = 0
  private var failed = 0

  private def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Generate and cache the inputs. */
  private def prepareInputs(): Unit = {
    Seq(s, t).foreach(x => if (x != null) x.unpersist(blocking = true))
    val (si, ti) = w.inputs(spark, args.seed)
    s = si.cache(); t = ti.cache()
    s.count(); t.count()
  }

  /** Build, cache and fingerprint the reference answer. */
  private def buildReference(): Unit = {
    ref = Reference.pairs(s, t, w.dims, w.band).cache()
    refDigest = Digest.of(ref)
  }

  /** One band-join as a caller runs it, then its evaluation. */
  private def query(q: Int): Option[QueryRun] = {
    tracer.query = q
    attempted += 1
    try {
      val ((res, digest), querySec) = seconds(tracer.span("query") {
        val sample = tracer.span("Samples.draw") {
          val x = Samples.draw(s, t, w.dims, w.band, SampleSize, SampleSize, SampleSeed)
          tracer.note("pair_sample_size", x.pairs.length)
          x
        }
        val region = tracer.span("RecPart.exactBounds") { RecPart.exactBounds(s, t, w.dims) }
        val res = tracer.span("RecPart.optimize") {
          val x = RecPart.optimize(sample, region, w.band, w.config)
          tracer.note("iterations", x.iterations)
          x
        }
        val digest = tracer.span("BandJoinExec.pairs") {
          val d = Digest.of(BandJoinExec.pairs(s, t, w.dims, w.band, res.partitioning))
          tracer.note("output_pairs", d.count)
          d
        }
        (res, digest)
      })
      val (m, evalSec) = seconds(tracer.span("Metrics.compute") {
        Metrics.compute(s, t, w.dims, res.partitioning, ref)
      })
      val replayOk = !tracer.enabled || replay(res.partitioning) == refDigest.count
      val ok = digest == refDigest && replayOk
      if (!ok) {
        failed += 1
        Console.err.println(s"query $q: output $digest, replay ok $replayOk, reference $refDigest")
      }
      if (ok) Some(QueryRun(tracer.enabled, querySec, evalSec, m, res)) else None
    } catch {
      case e: Exception =>
        failed += 1
        Console.err.println(s"query $q failed:")
        e.printStackTrace()
        None
    }
  }

  /** Traced runs only: route the inputs on their own, then collect every
    * partition's routed tuples and re-run `LocalJoin.join` on each, one
    * after another on the driver, timing its CPU. Returns the pair total.
    */
  private def replay(part: BandPartitioning): Long = {
    def routed = BandJoinExec.route(s, w.dims, 0, part)
      .union(BandJoinExec.route(t, w.dims, 1, part))
    tracer.span("BandJoinExec.route") { tracer.note("routed_records", routed.count()) }
    tracer.span("LocalJoin.join") {
      val byPid = routed.collect().groupBy(_.pid)
      val cpu = ManagementFactory.getThreadMXBean
      var total = 0L
      var sum = 0.0
      var max = 0.0
      for ((_, rows) <- byPid) {
        val (sr, tr) = rows.partition(_.side == 0)
        val c0 = cpu.getCurrentThreadCpuTime
        total += LocalJoin.join(sr.map(_.x), tr.map(_.x), w.band).length
        val sec = (cpu.getCurrentThreadCpuTime - c0) / 1e9
        sum += sec
        max = math.max(max, sec)
      }
      tracer.note("cpu_s", sum)
      tracer.note("max_partition_s", max)
      tracer.note("pairs", total)
      total
    }
  }

  def run(): Unit = {
    val startupSec = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val inputSecs = (1 to SetupReps).map(_ => seconds(prepareInputs())._2)
    val (_, refSec) = seconds(buildReference())
    val (selfTestOk, selfTestSec) = seconds(Reference.selfTest(ref, refDigest))
    // Two warm-up queries; only the first counts toward set-up. The JIT
    // keeps speeding up the query path well after the first one. A traced
    // run traces the second, so that its trace path is warm too.
    val warmSecs = Seq(-1, 0).map { q =>
      tracer.enabled = args.trace && q == 0
      seconds(query(q))._2
    }
    Jvm.resetPeak()
    val gc0 = Jvm.gcSeconds
    val runs = ArrayBuffer.empty[QueryRun]
    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    var q = 0
    // Start another query only while it is expected to end in time. A
    // traced run alternates traced and untraced queries, at least one of
    // each, so that it measures its own tracing overhead.
    do {
      q += 1
      tracer.enabled = args.trace && q % 2 == 1
      query(q).foreach(runs += _)
    } while (elapsed * (q + 1) / q < args.seconds || (args.trace && q < 2) || (runs.isEmpty && q < 3))
    if (runs.isEmpty) throw new IllegalStateException("every query failed")
    val measuredSec = elapsed
    val gcPerQuery = (Jvm.gcSeconds - gc0) / q
    val heapPeak = Jvm.heapPeakMb
    if (args.trace) tracer.listener.drain(spark)
    val retained = Jvm.heapRetainedMb

    val correct = failed == 0 && selfTestOk
    val last = runs.last
    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) Seq(
        ("setup_s", median(inputSecs) + refSec + warmSecs.head, "s"),
        ("query_s", median(runs.map(_.querySec).toSeq), "s"),
        ("dup_factor", last.metrics.i.toDouble / last.metrics.inputLowerBound, "ratio"),
        ("load_factor", last.metrics.lm / last.metrics.l0, "ratio"),
        ("model_join_cost", CostModel.default.predict(
          last.metrics.i.toDouble, last.metrics.im.toDouble, last.metrics.om.toDouble), "tuples"),
        ("heap_retained_mb", retained, "MiB"))
      else layerMetrics(runs.toSeq, gcPerQuery, heapPeak)

    val env = Map[String, Any](
      "workload" -> w.name, "seed" -> args.seed, "trace" -> args.trace,
      "seconds" -> args.seconds, "measured_s" -> measuredSec, "queries" -> runs.length,
      "nproc" -> Runtime.getRuntime.availableProcessors, "cores" -> cores,
      "xmx_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .filter(_.startsWith("-X")).mkString(" "),
      "spark" -> spark.version, "scala" -> scala.util.Properties.versionNumberString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "commit" -> args.commit, "build" -> args.build,
      "startup_s" -> startupSec, "setup_inputs_s" -> inputSecs, "setup_reference_s" -> refSec,
      "self_test" -> selfTestOk, "self_test_s" -> selfTestSec, "warmup_s" -> warmSecs,
      "dup_overhead" -> last.metrics.dupOverhead, "load_overhead" -> last.metrics.loadOverhead,
      "reference_pairs" -> refDigest.count)
    metrics.foreach { case (n, v, u) => println(f"$n%-36s $v%.6f $u") }
    if (!args.trace) {
      // Printed, not gated: see README.md, "End-to-end metrics".
      println(f"${"evaluate_s"}%-36s ${median(runs.map(_.evalSec).toSeq)}%.6f s")
      println(f"${"dup_overhead"}%-36s ${last.metrics.dupOverhead}%.6f ratio (dup_factor - 1)")
      println(f"${"load_overhead"}%-36s ${last.metrics.loadOverhead}%.6f ratio (load_factor - 1)")
    }
    println("env " + Json(env))
    val metricsJson = metrics.map { case (n, v, u) => n -> Map("value" -> v, "unit" -> u) }.toMap

    args.out.mkdirs()
    val stem = s"${w.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
    val record = env ++ Map(
      "metrics" -> metricsJson,
      "query_s" -> runs.map(_.querySec), "evaluate_s" -> runs.map(_.evalSec),
      "query_traced" -> runs.map(_.traced),
      "spans" -> tracer.spans.map(sp => Map(
        "id" -> sp.id, "parent" -> sp.parent, "query" -> sp.query, "name" -> sp.name,
        "start_ms" -> (sp.startNs - start) / 1e6, "end_ms" -> (sp.endNs - start) / 1e6,
        "self_ms" -> tracer.selfSeconds(sp) * 1e3, "attrs" -> sp.attrs)))
    val pw = new PrintWriter(new File(args.out, stem + ".json"))
    try pw.println(Json(record)) finally pw.close()

    println(Json(Map(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> metricsJson)))
  }

  /** Per-layer metrics of a traced run: medians over its traced queries. */
  private def layerMetrics(all: Seq[QueryRun], gcPerQuery: Double,
                           heapPeak: Double): Seq[(String, Double, String)] = {
    val (runs, untraced) = all.partition(_.traced)
    val spans = tracer.spans.filter(_.query > 0)
    def med(name: String)(f: Span => Double): Double = median(spans.filter(_.name == name).map(f))
    def mean(name: String)(f: Span => Double): Double = {
      val v = spans.filter(_.name == name).map(f)
      v.sum / v.length
    }
    def secs(name: String) = med(name)(_.seconds)
    def attr(name: String, key: String) = med(name)(_.attrs(key))
    def work(name: String)(f: SparkWork => Double) = med(name)(sp => f(tracer.work(sp)))
    val join = "BandJoinExec.pairs"
    def r(f: QueryRun => Double) = median(runs.map(f))
    Seq(
      ("Samples.draw_s", secs("Samples.draw"), "s"),
      ("Samples.spark_jobs", work("Samples.draw")(_.jobs), "count"),
      ("Samples.pair_sample_size", attr("Samples.draw", "pair_sample_size"), "count"),
      ("RecPart.bounds_s", secs("RecPart.exactBounds"), "s"),
      ("RecPart.bounds_spark_jobs", work("RecPart.exactBounds")(_.jobs), "count"),
      ("RecPart.optimize_s", secs("RecPart.optimize"), "s"),
      ("RecPart.iterations", r(_.result.iterations), "count"),
      ("RecPart.chosen_iteration", r(_.result.chosenIteration), "count"),
      ("RecPart.optimize_ms_per_iter", med("RecPart.optimize")(sp =>
        sp.seconds * 1e3 / math.max(1.0, sp.attrs("iterations"))), "ms"),
      ("RecPart.partitions", r(q => SplitTree.numPids(q.result.partitioning.root)), "count"),
      ("RecPart.est_lm_ratio", r(q => q.result.est.estLm / q.metrics.lm), "ratio"),
      ("BandJoinExec.route_s", secs("BandJoinExec.route"), "s"),
      ("BandJoinExec.routed_records", attr("BandJoinExec.route", "routed_records"), "count"),
      ("BandJoinExec.join_s", secs(join), "s"),
      ("BandJoinExec.output_pairs", attr(join, "output_pairs"), "count"),
      ("BandJoinExec.shuffle_write_mb", work(join)(_.shuffleWriteBytes / 1048576.0), "MiB"),
      ("BandJoinExec.shuffle_records", work(join)(_.shuffleWriteRecords), "count"),
      ("BandJoinExec.task_time_sum_s", work(join)(_.taskTimeSumMs / 1e3), "s"),
      ("BandJoinExec.task_time_max_s", work(join)(_.taskTimeMaxMs / 1e3), "s"),
      ("BandJoinExec.gc_s", mean(join)(sp => tracer.work(sp).gcMs / 1e3), "s"),
      ("LocalJoin.cpu_s", attr("LocalJoin.join", "cpu_s"), "s"),
      ("LocalJoin.max_partition_s", attr("LocalJoin.join", "max_partition_s"), "s"),
      ("LocalJoin.pairs_per_cpu_s", med("LocalJoin.join")(sp =>
        sp.attrs("pairs") / math.max(sp.attrs("cpu_s"), 1e-9)), "1/s"),
      ("Metrics.compute_s", secs("Metrics.compute"), "s"),
      ("Metrics.spark_jobs", work("Metrics.compute")(_.jobs), "count"),
      ("Metrics.shuffle_write_mb", work("Metrics.compute")(_.shuffleWriteBytes / 1048576.0), "MiB"),
      ("driver.gc_s", gcPerQuery, "s"),
      ("driver.heap_peak_mb", heapPeak, "MiB"),
      ("trace.query_s", r(_.querySec), "s"),
      ("trace.overhead_s", r(_.querySec) - median(untraced.map(_.querySec)), "s"),
      ("trace.query_self_s", med("query")(tracer.selfSeconds), "s"))
  }
}

/** Minimal JSON writer for the result line and the run record. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => apply(f.toDouble)
    case n: Number => n.toString
    case m: Map[_, _] => m.map { case (k, x) => apply(k.toString) + ":" + apply(x) }
      .mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case other => apply(other.toString)
  }
}
