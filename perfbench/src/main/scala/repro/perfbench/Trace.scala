package repro.perfbench

import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed interval. Times are milliseconds since the run started.
  * `parent` is the id of the span that caused this one (-1 for an op's
  * root span); every span of one detection carries that detection's `op`.
  */
final case class Span(id: Int, parent: Int, op: Int, name: String, start: Double, end: Double) {
  def ms: Double = end - start
}

/** In-memory span recorder wrapped around the benchmark's calls into each
  * module. When off, `span` only runs its body.
  */
final class Tracer(val on: Boolean) {
  private val t0 = System.nanoTime()
  private val wall0 = System.currentTimeMillis()
  private val open = mutable.Stack[Int]()
  private var nextId = 0
  val spans = mutable.ArrayBuffer[Span]()

  def now: Double = (System.nanoTime() - t0) / 1e6
  /** Converts an epoch-millisecond timestamp (Spark listener events). */
  def fromEpoch(ms: Long): Double = (ms - wall0).toDouble

  def span[A](name: String, op: Int)(body: => A): A =
    if (!on) body
    else {
      val id = nextId; nextId += 1
      val parent = if (open.isEmpty) -1 else open.top
      val start = now
      open.push(id)
      try body
      finally { open.pop(); spans += Span(id, parent, op, name, start, now) }
    }

  /** Records an interval measured elsewhere (a Spark job or stage). */
  def add(name: String, op: Int, parent: Int, start: Double, end: Double): Int = {
    val id = nextId; nextId += 1
    spans += Span(id, parent, op, name, start, end)
    id
  }

  /** Span duration minus the part of it covered by its children. */
  def selfTimes: Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
      s.id -> (s.ms - Tracer.union(kids.toSeq))
    }.toMap
  }
}

object Tracer {
  /** Total length of the union of intervals. */
  def union(iv: Seq[(Double, Double)]): Double = {
    var total = 0.0; var curS = Double.NaN; var curE = Double.NaN
    iv.filter(x => x._2 > x._1).sortBy(_._1).foreach { case (s, e) =>
      if (curE.isNaN || s > curE) {
        if (!curE.isNaN) total += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (!curE.isNaN) total += curE - curS
    total
  }
}

/** Spark job, stage and shuffle counts per job group, from a listener. */
final class SparkJobs extends SparkListener {
  import SparkJobs._

  private val jobs = mutable.LinkedHashMap[Int, Job]()
  private val stages = mutable.ArrayBuffer[Stage]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    jobs(e.jobId) = Job(e.jobId, group, e.time, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val s = e.stageInfo
    val tm = Option(s.taskMetrics)
    stages += Stage(s.stageId, s.submissionTime.getOrElse(0L), s.completionTime.getOrElse(0L), s.numTasks,
      tm.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
      tm.map(_.shuffleReadMetrics.totalBytesRead).getOrElse(0L),
      tm.map(_.executorRunTime).getOrElse(0L))
  }

  /** Jobs of `group` and the stages they ran (skipped stages excluded). */
  def of(group: String): (Seq[Job], Seq[Stage]) = synchronized {
    val js = jobs.values.filter(_.group == group).toSeq
    val ids = js.flatMap(_.stageIds).toSet
    (js, stages.filter(s => ids(s.id)).toSeq)
  }
}

object SparkJobs {
  final case class Job(id: Int, group: String, start: Long, stageIds: Seq[Int], var end: Long = -1L)
  final case class Stage(id: Int, submitted: Long, completed: Long, tasks: Int,
                         shuffleWrite: Long, shuffleRead: Long, runMs: Long)
}
