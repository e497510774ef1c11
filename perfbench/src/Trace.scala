package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spark work attributed to one span: jobs it started and the metrics of
  * their finished tasks.
  */
final class SparkWork {
  var jobs = 0
  var taskTimeSumMs = 0L
  var taskTimeMaxMs = 0L
  var gcMs = 0L
  var shuffleWriteBytes = 0L
  var shuffleWriteRecords = 0L
}

/** Counts Spark jobs and task metrics per job group. The tracer sets the
  * job group to the id of the innermost open span, so each job lands on
  * the layer call that started it.
  */
final class LayerListener extends SparkListener {
  private val work = new ConcurrentHashMap[String, SparkWork]()
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val jobGroup = new ConcurrentHashMap[Int, String]()
  @volatile private var drained = ""
  private var drains = 0

  private def of(group: String): SparkWork = work.computeIfAbsent(group, _ => new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    group.foreach { g =>
      jobGroup.put(e.jobId, g)
      of(g).synchronized(of(g).jobs += 1)
      e.stageIds.foreach(stageGroup.put(_, g))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val g = stageGroup.get(e.stageId)
    val m = e.taskMetrics
    if (g != null && m != null) {
      val w = of(g)
      w.synchronized {
        w.taskTimeSumMs += m.executorRunTime
        w.taskTimeMaxMs = math.max(w.taskTimeMaxMs, m.executorRunTime)
        w.gcMs += m.jvmGCTime
        w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        w.shuffleWriteRecords += m.shuffleWriteMetrics.recordsWritten
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobGroup.get(e.jobId)).filter(_.startsWith("drain-")).foreach(drained = _)

  /** Work recorded for a job group; empty if it started no job. */
  def workOf(group: String): SparkWork = Option(work.get(group)).getOrElse(new SparkWork)

  /** Blocks until every event posted before the call has been delivered:
    * runs one marker job and waits for its end event, which the listener
    * bus delivers after all earlier events.
    */
  def drain(spark: SparkSession): Unit = {
    val sc = spark.sparkContext
    drains += 1
    val token = s"drain-$drains"
    sc.setJobGroup(token, "drain")
    sc.parallelize(Seq(1), 1).count()
    sc.clearJobGroup()
    val deadline = System.nanoTime() + 30000000000L
    while (drained != token && System.nanoTime() < deadline) Thread.sleep(5)
    require(drained == token, "Spark listener bus did not drain within 30 s")
  }
}

/** One timed call into a layer. `parent` is -1 for a root span; all spans
  * of one query share `query`.
  */
final case class Span(id: Int, parent: Int, query: Int, name: String,
                      startNs: Long, endNs: Long, attrs: Map[String, Double]) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. While `enabled` is off, `span` only runs its
  * body: no clock reads and no job groups. The listener is registered
  * only if `traced`.
  */
final class Tracer(spark: SparkSession, traced: Boolean) {
  val listener = new LayerListener
  if (traced) spark.sparkContext.addSparkListener(listener)
  var enabled = false

  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[(Int, mutable.Map[String, Double])] = Nil
  private var nextId = 0
  var query: Int = -1

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.fold(-1)(_._1)
      val attrs = mutable.Map.empty[String, Double]
      open = (id, attrs) :: open
      spark.sparkContext.setJobGroup(id.toString, name)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        open.headOption match {
          case Some((p, _)) => spark.sparkContext.setJobGroup(p.toString, "")
          case None => spark.sparkContext.clearJobGroup()
        }
        done += Span(id, parent, query, name, t0, t1, attrs.toMap)
      }
    }

  /** Attach a count to the innermost open span. */
  def note(key: String, value: Double): Unit =
    if (enabled) open.headOption.foreach(_._2(key) = value)

  def spans: Seq[Span] = done.toSeq

  /** Seconds of `s` not covered by its direct children (which never
    * overlap: layer calls run one after another on the driver thread).
    */
  def selfSeconds(s: Span): Double =
    s.seconds - done.iterator.filter(_.parent == s.id).map(_.seconds).sum

  def work(s: Span): SparkWork = listener.workOf(s.id.toString)
}

/** Driver JVM counters: collector time and heap. In local mode the
  * driver also runs every task, so these include task work.
  */
object Jvm {
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  private def heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)

  def resetPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of the heap pools' peaks since the last `resetPeak`, in MiB. */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0

  /** Heap in use after full collections, in MiB. */
  def heapRetainedMb: Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}
