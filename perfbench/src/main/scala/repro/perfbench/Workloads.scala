package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.local._
import scala.collection.mutable

/** A benchmark workload: how its input is made and loaded, how one
  * detection runs (plain, or with spans around each module call), and the
  * untimed references its output gate compares against.
  */
sealed trait Workload {
  def name: String
  def usesSpark: Boolean
  /** Metric configs the closed loop rotates through, one per op. */
  def configs: IndexedSeq[String]
  def warmups: Int
  /** Generates the input from `seed` and loads it into the engine's input form. */
  def load(seed: Long): Unit
  def input: Input
  /** Untimed: one gate per config (greedy reference, cross-engine reference). */
  def gates(threads: Int): IndexedSeq[Gate]
  def detect(cfg: Int, threads: Int, tr: Tracer, op: Int): Detection
  /** Called around the timed loop of a traced run. */
  def traceStart(): Unit = ()
  def traceEnd(): Unit = ()
  /** Untimed, after a traced op: per-op layer samples that are not spans. */
  def collect(tr: Tracer, op: Int, d: Detection, samples: Samples): Unit = ()
  /** Traced run only: one-off layer measurements; returns problems found. */
  def traceExtras(tr: Tracer, samples: Samples): Seq[String] = Nil
}

/** Per-layer samples, one value per traced op (or per run). */
final class Samples {
  private val m = mutable.LinkedHashMap[String, mutable.ArrayBuffer[Double]]()
  def add(name: String, v: Double): Unit = m.getOrElseUpdate(name, mutable.ArrayBuffer()) += v
  def median(name: String): Option[Double] = m.get(name).map(b => Stats.median(b.toSeq))
}

object Workloads {
  val Eps = 0.1
  /** GraphGen seed of the Spark workloads' graph structure; see `apply`. */
  val SparkStructureSeed = 1L
  val names: Seq[String] = Seq("edge-window", "clique-dense", "spark-fraud", "spark-triangle")

  def apply(name: String, scale: Double, spark: () => SparkSession): Workload = name match {
    case "edge-window" =>
      new LocalWorkload(name, Inputs.powerLaw(_, 32000, 590000, 0.60, scale), Vector(DG, DW, FD), 6)
    case "clique-dense" =>
      new LocalWorkload(name, Inputs.powerLaw(_, 1391, 40000, 0.70, scale), Vector(KCliDS(4)), 4)
    // A Spark detection costs about a fixed number of jobs per peeling
    // snapshot, and on fresh graphs of these shapes the snapshot count varies
    // by up to a third from seed to seed, more than any regression bound. So
    // the Spark workloads peel one graph structure, and the seed relabels its
    // vertices and reorders its edges.
    case "spark-fraud" =>
      new SparkWorkload(name, seed => Inputs.relabel(
        Inputs.bipartite(SparkStructureSeed, 3000, 1000, 34000, 0.55, scale), seed), 0, 1, spark)
    case "spark-triangle" =>
      new SparkWorkload(name, seed => Inputs.relabel(
        Inputs.powerLaw(SparkStructureSeed, 542, 10000, 0.60, scale), seed), 3, 6, spark)
    case other =>
      throw new IllegalArgumentException(s"unknown workload $other (known: ${names.mkString(", ")})")
  }

  def config(threads: Int): DupinLocal.Config =
    DupinLocal.Config(eps = Eps, gpo = true, lpo = true, threads = threads,
      deadline = Deadline.in(Bench.DeadlineS))

  def detection(r: PeelResult): Detection =
    Detection(r.bestSet, r.bestDensity, r.rounds, r.longTailPeels, r.sparseTrims, r.history.size)
}

/** Local CSR engine: every op builds its CSR from the raw triples and
  * peels with GPO+LPO; nothing is reused across ops.
  */
final class LocalWorkload(val name: String, gen: Long => Input, metrics: IndexedSeq[Metric],
                          val warmups: Int) extends Workload {
  val usesSpark = false
  val configs: IndexedSeq[String] = metrics.map(_.name)
  private var in: Input = _
  def input: Input = in

  def load(seed: Long): Unit = in = gen(seed)

  def gates(threads: Int): IndexedSeq[Gate] = {
    val simple = Coalesced(in)
    metrics.map { metric =>
      val greedy = SequentialPeeling.run(metric, LocalGraph.fromEdges(in.n, in.edges, in.prior))
      val density = if (metric.edgeBased) EdgeDensity(simple, metric.name) else new CliqueDensity(simple, metric.k)
      new Gate(density, greedy.bestDensity, Workloads.Eps, None)
    }
  }

  def detect(cfg: Int, threads: Int, tr: Tracer, op: Int): Detection = {
    val metric = metrics(cfg)
    val conf = Workloads.config(threads)
    val r =
      if (!tr.on) DupinLocal.run(metric, LocalGraph.fromEdges(in.n, in.edges, in.prior), conf)
      else tr.span("op", op) {
        // The same calls DupinLocal.run makes, one span each.
        val g = tr.span("local.csr_build", op)(LocalGraph.fromEdges(in.n, in.edges, in.prior))
        val prepared = tr.span("metric.prepare", op)(metric.prepare(g))
        val state = tr.span("metric.state_init", op) {
          if (metric.edgeBased) new EdgeMetricState(prepared)
          else new CliqueMetricState(prepared, metric.k, threads)
        }
        lastCsrBytes = 4L * (g.offsets.length + g.nbrs.length) + 8L * (g.ew.length + g.vw.length)
        lastCliques = if (metric.edgeBased) 0.0 else state.f
        tr.span("local.peel", op)(DupinLocal.runOn(state, metric.k, conf))
      }
    Workloads.detection(r)
  }

  private var lastCsrBytes = 0L
  private var lastCliques = 0.0

  override def collect(tr: Tracer, op: Int, d: Detection, samples: Samples): Unit = {
    samples.add("local.csr_bytes", lastCsrBytes.toDouble)
    samples.add("metric.cliques", lastCliques)
  }
}

/** Spark engine through the Listing-1 API. The DataFrames are made once in
  * set-up (they are lazy plans over the generated rows, never cached); every
  * op builds a fresh `Dupin` and calls `ParDetect`.
  *
  * `cliqueK == 0`: `VSusp(prior).ESusp(amount)`, the fraud edge metric.
  * `cliqueK == 3`: `setK(3)`, triangle density through `SparkCliques`.
  */
final class SparkWorkload(val name: String, gen: Long => Input, cliqueK: Int, val warmups: Int,
                          spark: () => SparkSession) extends Workload {
  val usesSpark = true
  val configs: IndexedSeq[String] = IndexedSeq(if (cliqueK == 0) "prior+amount" else "TDS")
  private var in: Input = _
  private var vertices: DataFrame = _
  private var edges: DataFrame = _
  private var reference: Detection = _
  private var triangles = 0.0
  def input: Input = in

  def load(seed: Long): Unit = {
    val s = spark()
    import s.implicits._
    in = gen(seed)
    vertices = in.prior.toSeq.zipWithIndex.map { case (p, i) => (i.toLong, p) }.toDF("id", "prior")
    edges = in.edges.map { case (a, b, w) => (a.toLong, b.toLong, w) }.toDF("src", "dst", "amount")
  }

  def gates(threads: Int): IndexedSeq[Gate] = {
    val g = LocalGraph.fromEdges(in.n, in.edges, in.prior)
    val conf = Workloads.config(threads)
    val (greedy, local, density) =
      if (cliqueK == 0)
        (SequentialPeeling.runOn(new EdgeMetricState(g)), DupinLocal.runOn(new EdgeMetricState(g), 2, conf),
          EdgeDensity(Coalesced(in), "prior+amount"))
      else {
        triangles = new CliqueMetricState(g, cliqueK, threads).f
        (SequentialPeeling.run(TDS, g), DupinLocal.run(TDS, g, conf), new CliqueDensity(Coalesced(in), cliqueK))
      }
    reference = Workloads.detection(local)
    IndexedSeq(new Gate(density, greedy.bestDensity, Workloads.Eps, Some(reference)))
  }

  private def group(op: Int) = s"perfbench-op-$op"
  private val jobs = new SparkJobs

  override def traceStart(): Unit = spark().sparkContext.addSparkListener(jobs)
  override def traceEnd(): Unit = spark().sparkContext.removeSparkListener(jobs)

  def detect(cfg: Int, threads: Int, tr: Tracer, op: Int): Detection = {
    val sc = spark().sparkContext
    if (tr.on) sc.setJobGroup(group(op), s"$name op $op", interruptOnCancel = false)
    try tr.span("op", op) {
      val dupin = new Dupin(spark())
      if (cliqueK == 0) dupin.VSusp(col("prior")).ESusp(col("amount")) else dupin.setK(cliqueK)
      dupin.setEpsilon(Workloads.Eps).LoadGraph(vertices, edges)
      val ids = tr.span("dupin.par_detect", op)(dupin.ParDetect())
      val r = dupin.lastResult
      Detection(ids.map(_.toInt), r.bestDensity, r.rounds, r.longTailPeels, r.sparseTrims, r.history.size)
    } finally if (tr.on) sc.clearJobGroup()
  }

  override def collect(tr: Tracer, op: Int, d: Detection, samples: Samples): Unit = {
    org.apache.spark.perfbench.ListenerBus.drain(spark().sparkContext)
    val (opJobs, stages) = jobs.of(group(op))
    val detect = tr.spans.filter(s => s.op == op && s.name == "dupin.par_detect").last
    val jobIv = opJobs.map { j =>
      val iv = (tr.fromEpoch(j.start), tr.fromEpoch(j.end))
      val id = tr.add("spark.job", op, detect.id, iv._1, iv._2)
      stages.filter(s => j.stageIds.contains(s.id)).foreach { s =>
        tr.add("spark.stage", op, id, tr.fromEpoch(s.submitted), tr.fromEpoch(s.completed))
      }
      (math.max(iv._1, detect.start), math.min(iv._2, detect.end))
    }
    val jobMs = Tracer.union(jobIv)
    samples.add("spark.jobs", opJobs.size)
    samples.add("spark.stages", stages.size)
    samples.add("spark.tasks", stages.map(_.tasks.toDouble).sum)
    samples.add("spark.jobs_per_snapshot", opJobs.size.toDouble / d.snapshots)
    samples.add("spark.shuffle_write_bytes", stages.map(_.shuffleWrite.toDouble).sum)
    samples.add("spark.shuffle_read_bytes", stages.map(_.shuffleRead.toDouble).sum)
    samples.add("spark.job_ms", jobMs)
    samples.add("spark.driver_gap_ms", detect.ms - jobMs)
    samples.add("spark.task_run_ms", stages.map(_.runMs.toDouble).sum)
    if (cliqueK > 0) samples.add("metric.cliques", triangles)
  }

  override def traceExtras(tr: Tracer, samples: Samples): Seq[String] =
    if (cliqueK == 0) Nil
    else {
      val s = spark()
      import s.implicits._
      val simple = Coalesced(in)
      val canonical = simple.src.indices.map(e => (simple.src(e).toLong, simple.dst(e).toLong)).toDF("src", "dst")
      val rows = tr.span("spark.clique_count", -1)(SparkCliques.cliqueCounts(canonical, cliqueK).collect())
      samples.add("spark.clique_count_ms", tr.spans.last.ms)
      val memberships = rows.map(_.getDouble(1)).sum
      if (memberships != cliqueK * triangles)
        Seq(s"SparkCliques.cliqueCounts sums to $memberships, expected ${cliqueK * triangles}")
      else Nil
    }
}
