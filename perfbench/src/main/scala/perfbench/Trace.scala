package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One recorded span: a call into a layer, timed at its boundary. */
final case class Span(id: Int, name: String, parent: Int, root: Int,
                      startNs: Long, endNs: Long, selfNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
  def selfSeconds: Double = selfNs / 1e9
}

/** In-memory span recorder. With `enabled = false` every call runs its body
  * with no bookkeeping, so the untraced run measures the program alone.
  *
  * A root span (no parent) is one repetition of a measured phase, such as
  * one set-up or one artifact iteration. Every Spark job started inside a
  * span is tagged with the job group `<span>@<root>`, so [[SparkCounters]]
  * can attribute stage task metrics to the span and the repetition.
  */
final class Tracer(val enabled: Boolean, sc: SparkContext) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.LinkedHashMap.empty[(String, Int), Double]
  // Open spans: (id, name, root, start, child time so far).
  private val stack = mutable.ArrayBuffer.empty[(Int, String, Int, Long, Long)]
  private var nextId = 0

  def spans: Vector[Span] = done.toVector

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val root = if (stack.isEmpty) id else stack.head._3
      stack += ((id, name, root, System.nanoTime(), 0L))
      sc.setJobGroup(s"$name@$root", name, interruptOnCancel = false)
      try body
      finally {
        val end = System.nanoTime()
        val (_, _, _, start, childNs) = stack.remove(stack.length - 1)
        val parent = if (stack.isEmpty) -1 else stack.last._1
        done += Span(id, name, parent, root, start, end, (end - start) - childNs)
        if (stack.nonEmpty) {
          val p = stack.last
          stack(stack.length - 1) = p.copy(_5 = p._5 + (end - start))
          sc.setJobGroup(s"${p._2}@${p._3}", p._2, interruptOnCancel = false)
        } else sc.clearJobGroup()
      }
    }

  /** Adds to a named count (rows, pairs, ...) of the current root span. */
  def count(name: String, v: Double): Unit =
    if (enabled) {
      val key = (name, if (stack.isEmpty) -1 else stack.head._3)
      counts(key) = counts.getOrElse(key, 0.0) + v
    }

  /** Counts by (name, root span id). */
  def countsByRoot: Map[(String, Int), Double] = counts.toMap
}

/** Stage task metrics summed per job group, i.e. per (span, root). */
final class SparkCounters extends SparkListener {
  final class Acc { var jobs = 0L; var tasks = 0L; var runMs = 0L
                    var shuffleWrite = 0L; var spill = 0L }

  private val stageGroup = mutable.HashMap.empty[Int, String]
  val byGroup = mutable.HashMap.empty[String, Acc]

  private def acc(g: String) = byGroup.getOrElseUpdate(g, new Acc)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("(none)")
    val a = acc(g)
    a.jobs += 1
    e.stageIds.foreach(s => stageGroup(s) = g)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val a = acc(stageGroup.getOrElse(e.stageId, "(none)"))
    a.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      a.runMs += m.executorRunTime
      a.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      a.spill += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  /** Waits until every event posted so far has reached the listeners. */
  def drain(sc: SparkContext): Unit = org.apache.spark.BenchListenerBus.drain(sc)
}

/** JVM-wide counters read from the management beans. */
object Jvm {
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala
      .map(b => math.max(0L, b.getCollectionTime)).sum / 1e3

  /** Heap in use after forced full collections, in MB: the least of
    * several, since Spark's context cleaner frees blocks asynchronously
    * once a collection has found their owners unreachable.
    */
  def liveHeapMb: Double =
    (1 to 5).map { _ =>
      System.gc(); Thread.sleep(200)
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    }.min

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / (1024.0 * 1024.0)
}
