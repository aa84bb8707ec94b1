package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Auto-broadcast is off, as in the table jobs' and the
  * benchmark's sessions, so tests run the plans those sessions run: no
  * join is broadcast because a frame happened to look small.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Spark jobs `run` starts, and its result. */
  def countJobs[A](run: => A): (Int, A) = {
    val sc = spark.sparkContext
    val (group, marker) = ("job-budget", "job-budget-marker")
    val jobs = new AtomicInteger()
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(js: SparkListenerJobStart): Unit =
        Option(js.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some(`group`) => jobs.incrementAndGet()
          case Some(`marker`) => drained.countDown()
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "job budget")
      val r = run
      // The bus delivers events in order: once the marker job's start has
      // arrived, so has every job start of the run.
      sc.setJobGroup(marker, "drain the listener bus")
      sc.parallelize(Seq(1), 1).count()
      assert(drained.await(60, TimeUnit.SECONDS), "listener bus did not drain")
      (jobs.get, r)
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
