package repro.perfbench

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.util.control.NonFatal

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted; val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** The highest percentile that has at least ten samples beyond it:
    * (value, percentile, samples beyond). With 21 samples or fewer that
    * percentile is the median or below it (the minimum at 11 samples), which
    * is no tail, so the maximum is reported as p100 with 0 beyond.
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val s = xs.sorted; val n = s.length
    if (n == 0) (Double.NaN, 100.0, 0)
    else if (n <= 21) (s.last, 100.0, 0)
    else (s(n - 11), 100.0 * (n - 10) / n, 10)
  }
}

final case class Opts(
    workload: String,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    scale: Double = 1.0,
    gitSha: String = "unknown",
    sourceHash: String = "unknown",
    traceFile: Option[String] = None)

final case class Measure(name: String, value: Double, unit: String, note: String = "")

final case class Result(
    correct: Boolean,
    attempted: Int,
    failed: Int,
    metrics: Seq[Measure],
    layers: Seq[Measure],
    provenance: Seq[(String, String)],
    problems: Seq[String]) {
  def metric(name: String): Double = (metrics ++ layers).find(_.name == name).get.value
}

/** One benchmark run: set-up, untimed references, the timed closed loop
  * (one client, the next detection starts when the previous one returns),
  * and — with `trace` — the per-layer numbers.
  */
object Bench {
  /** A detection that takes longer than this counts as failed. */
  val DeadlineS = 60.0
  val ShufflePartitions = 16

  val threads: Int = Runtime.getRuntime.availableProcessors()

  def session(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Runs one workload. `tamper` rewrites each detection before the gate
    * sees it; the benchmark's own tests use it to show a corrupted result
    * is counted as failed.
    */
  def run(o: Opts, tamper: Detection => Detection = identity): Result = {
    val problems = mutable.ArrayBuffer[String]()
    var spark: SparkSession = null
    val w = Workloads(o.workload, o.scale, () => spark)

    // ---- set-up: session + input (median of 3) + warm-up detections. The
    // untimed references (exact greedy peeling, cross-engine result) are
    // made before the warm-up, so the timed loop starts right after it.
    var t = System.nanoTime()
    if (w.usesSpark) spark = session()
    val sessionMs = if (w.usesSpark) ms(t) else 0.0
    val inputMs = (1 to 3).map { _ => t = System.nanoTime(); w.load(o.seed); ms(t) }
    val gates = w.gates(threads)
    val off = new Tracer(false)
    t = System.nanoTime()
    val warmMs = mutable.ArrayBuffer[Double]()
    val warm = (0 until w.warmups).map { i =>
      val cfg = i % w.configs.size
      val t0 = System.nanoTime()
      val r = attempt(w.detect(cfg, threads, off, -1 - i))
      warmMs += ms(t0)
      cfg -> r
    }
    val warmupMs = ms(t)
    val setupS = (sessionMs + Stats.median(inputMs) + warmupMs) / 1e3

    var attempted = 0
    var failed = 0
    def judge(cfg: Int, op: Int, r: Either[String, Detection], latencyMs: Double): Option[Detection] = {
      attempted += 1
      val verdict = r.flatMap { d =>
        if (latencyMs > DeadlineS * 1e3) Left(f"deadline: $latencyMs%.0f ms")
        else gates(cfg).check(tamper(d)).toLeft(d)
      }
      verdict.left.foreach { why =>
        failed += 1
        if (problems.size < 20) problems += s"op $op (${w.configs(cfg)}): $why"
      }
      verdict.toOption
    }
    val first = mutable.Map[Int, Detection]()
    warm.foreach { case (cfg, r) => judge(cfg, -1, r, 0).foreach(first.getOrElseUpdate(cfg, _)) }

    // ---- timed closed loop. A traced run traces ops in the pattern plain,
    // traced, traced, plain, so drift from op to op (late JIT) cancels out of
    // the tracing overhead. The loop ends on a whole period, so every config
    // and both kinds of op weigh the same in the medians.
    val period = w.configs.size * (if (o.trace) 4 else 1)
    val tracer = new Tracer(o.trace)
    val samples = new Samples
    if (o.trace) w.traceStart()
    val plain = mutable.ArrayBuffer[Double]()
    val traced = mutable.ArrayBuffer[Double]()
    var busyMs = 0.0
    var op = 0
    val start = System.nanoTime()
    while (System.nanoTime() - start < (o.seconds * 1e9).toLong || op % period != 0) {
      val cfg = op % w.configs.size
      val tracedOp = o.trace && (op % 4 == 1 || op % 4 == 2)
      t = System.nanoTime()
      val r = attempt(w.detect(cfg, threads, if (tracedOp) tracer else off, op))
      val lat = ms(t)
      if (!tracedOp) busyMs += lat
      judge(cfg, op, r, lat).foreach { d =>
        first.getOrElseUpdate(cfg, d)
        if (tracedOp) { traced += lat; w.collect(tracer, op, d, samples) } else plain += lat
      }
      op += 1
    }
    if (o.trace) w.traceEnd()

    // ---- heap in use after a full GC, inputs still live
    System.gc(); Thread.sleep(50); System.gc()
    val heapMb = {
      val mem = java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage
      mem.getUsed / (1024.0 * 1024.0)
    }
    java.lang.ref.Reference.reachabilityFence(w.input)

    val p50 = Stats.median(plain.toSeq)
    val (tailV, tailPct, beyond) = Stats.tail(plain.toSeq)
    val greedyRatio = gates.indices.flatMap(c => first.get(c).map(d => gates(c).recomputed / gates(c).gGreedy))
    val e2e = Seq(
      Measure("latency_p50_ms", p50, "ms", s"n=${plain.size}"),
      Measure("latency_tail_ms", tailV, "ms", f"p$tailPct%.0f, $beyond beyond, n=${plain.size}"),
      Measure("detections_per_s", if (busyMs > 0) plain.size / (busyMs / 1e3) else 0.0, "1/s",
        s"${plain.size} detections, n=${w.input.n}, m=${w.input.m}"),
      Measure("setup_s", setupS, "s", f"session ${sessionMs / 1e3}%.2f s + input ${Stats.median(inputMs) / 1e3}%.2f s (median of 3) + warm-up ${warmupMs / 1e3}%.2f s"),
      Measure("density_ratio", greedyRatio.sum / greedyRatio.size, "ratio",
        "mean over configs of g(S^p) / g(greedy)"),
      Measure("live_heap_mb", heapMb, "MB", "after full GC, inputs live"),
    )

    val layers =
      if (!o.trace) Nil
      else {
        // single-thread pass for t1/tn on the local engine
        val t1 = if (w.usesSpark) Nil else w.configs.indices.flatMap { cfg =>
          t = System.nanoTime()
          val r = attempt(w.detect(cfg, 1, off, -100 - cfg))
          val lat = ms(t)
          judge(cfg, -100 - cfg, r, lat).map(_ => lat)
        }
        problems ++= w.traceExtras(tracer, samples)
        layerMetrics(w, tracer, samples, first.toMap, t1, p50, Stats.median(traced.toSeq),
          sessionMs, Stats.median(inputMs), warmupMs)
      }

    val provenance = Seq(
      "workload" -> o.workload, "seed" -> o.seed.toString, "seconds" -> o.seconds.toString,
      "trace" -> o.trace.toString, "scale" -> o.scale.toString,
      "n" -> w.input.n.toString, "m" -> w.input.m.toString,
      "git_sha" -> o.gitSha, "source_sha256" -> o.sourceHash,
      "nproc" -> threads.toString, "threads" -> threads.toString,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "load" -> "closed loop, 1 client",
      "configs" -> w.configs.mkString(","),
      "eps" -> Workloads.Eps.toString, "pruning" -> "GPO+LPO",
      "latency_samples" -> plain.size.toString, "traced_samples" -> traced.size.toString,
      "warmup_latencies_ms" -> warmMs.map(x => f"$x%.0f").mkString(" "),
      "latencies_ms" -> plain.map(x => f"$x%.0f").mkString(" "),
    ) ++ (if (spark == null) Nil else Seq(
      "spark" -> spark.version,
      "spark.master" -> spark.sparkContext.master,
      "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.autoBroadcastJoinThreshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "spark.sql.adaptive.enabled" -> spark.conf.get("spark.sql.adaptive.enabled"),
    ))

    o.traceFile.foreach(f => TraceFile.write(f, tracer, provenance))

    def defined(m: Measure) = !m.value.isNaN && !m.value.isInfinite
    val finite = (e2e ++ layers).forall(defined)
    if (!finite) problems += "a metric is undefined (no successful detection)"
    def orZero(ms: Seq[Measure]) = ms.map(m => if (defined(m)) m else m.copy(value = 0.0))
    Result(failed == 0 && finite && problems.isEmpty && plain.nonEmpty, attempted, failed,
      orZero(e2e), orZero(layers), provenance, problems.toSeq)
  }

  private def attempt(body: => Detection): Either[String, Detection] =
    try Right(body) catch { case NonFatal(e) => Left(e.toString) }

  private def layerMetrics(w: Workload, tr: Tracer, samples: Samples, first: Map[Int, Detection],
                           t1: Seq[Double], p50: Double, tracedP50: Double,
                           sessionMs: Double, inputMs: Double, warmupMs: Double): Seq[Measure] = {
    val ops = tr.spans.filter(s => s.name == "op" && s.op >= 0)
    val self = tr.selfTimes
    def spanMs(name: String): Double = {
      val perOp = ops.map(o => tr.spans.filter(s => s.op == o.op && s.name == name).map(_.ms).sum)
      if (perOp.isEmpty) 0.0 else Stats.median(perOp.toSeq)
    }
    def s(name: String): Double = samples.median(name).getOrElse(0.0)
    def sum(f: Detection => Double): Double = first.values.map(f).sum
    val local = !w.usesSpark
    def only(cond: Boolean)(v: => Double): Double = if (cond) v else 0.0
    Seq(
      Measure("local.csr_build_ms", spanMs("local.csr_build"), "ms"),
      Measure("local.csr_bytes", s("local.csr_bytes"), "bytes", "computed from array lengths"),
      Measure("metric.prepare_ms", spanMs("metric.prepare"), "ms"),
      Measure("metric.state_init_ms", spanMs("metric.state_init"), "ms"),
      Measure("metric.cliques", s("metric.cliques"), "count", "initial f of the clique state"),
      Measure("local.peel_ms", spanMs("local.peel"), "ms"),
      Measure("local.rounds", only(local)(sum(_.rounds)), "count", "summed over one op per config"),
      Measure("local.lpo_trims", only(local)(sum(_.lpoTrims.toDouble)), "count"),
      Measure("local.long_tail_peels", only(local)(sum(_.longTailPeels.toDouble)), "count"),
      Measure("local.snapshots", only(local)(sum(_.snapshots)), "count"),
      Measure("local.best_size", only(local)(sum(_.set.length)), "count"),
      Measure("local.t1_over_tn", only(local && t1.nonEmpty)(Stats.median(t1) / p50), "ratio",
        if (t1.isEmpty) "" else f"1-thread op ${Stats.median(t1)}%.1f ms / $threads-thread p50"),
      Measure("spark.jobs", s("spark.jobs"), "count"),
      Measure("spark.stages", s("spark.stages"), "count"),
      Measure("spark.tasks", s("spark.tasks"), "count"),
      Measure("spark.jobs_per_snapshot", s("spark.jobs_per_snapshot"), "ratio"),
      Measure("spark.shuffle_write_bytes", s("spark.shuffle_write_bytes"), "bytes"),
      Measure("spark.shuffle_read_bytes", s("spark.shuffle_read_bytes"), "bytes"),
      Measure("spark.job_ms", s("spark.job_ms"), "ms", "union of job intervals"),
      Measure("spark.driver_gap_ms", s("spark.driver_gap_ms"), "ms", "ParDetect time outside any job"),
      Measure("spark.task_run_ms", s("spark.task_run_ms"), "ms"),
      Measure("spark.rounds", only(!local)(sum(_.rounds)), "count"),
      Measure("spark.lpo_trims", only(!local)(sum(_.lpoTrims.toDouble)), "count"),
      Measure("spark.snapshots", only(!local)(sum(_.snapshots)), "count"),
      Measure("spark.clique_count_ms", s("spark.clique_count_ms"), "ms", "cliqueCounts(edges, 3), once"),
      Measure("setup.session_ms", sessionMs, "ms"),
      Measure("setup.input_ms", inputMs, "ms"),
      Measure("setup.warmup_ms", warmupMs, "ms"),
      Measure("trace.overhead_ms", if (tracedP50.isNaN) 0.0 else tracedP50 - p50, "ms",
        "traced latency_p50_ms minus untraced"),
      Measure("trace.uncovered_ms", if (ops.isEmpty) 0.0 else Stats.median(ops.map(o => self(o.id)).toSeq), "ms",
        "op time not covered by a child span"),
    )
  }
}
