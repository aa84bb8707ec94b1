package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{Dataset, Datasets}
import repro.fraud.PreventionSim
import repro.local.DupinLocal

/** One harness per reproduced table. Each returns the rendered text (also
  * persisted under `results/`) plus enough structured data for the bench
  * suites to assert the paper's *shape* (who wins, by roughly what factor).
  */
object Tables {

  /** A metric's name in the tables' headers and keys (kCLiDS runs at k = 4). */
  private def column(m: Metric): String = m match {
    case KCliDS(_) => "kCLiDS"
    case _         => m.name
  }

  // ---------------------------------------------------------------- Table 2
  /** Capability matrix of the implemented frameworks — reproduced exactly. */
  def table2(): String = {
    def yesNo(b: Boolean) = if (b) "Yes" else "No"
    val rows = Method.table2.map(m => Seq(m.label, m.metrics.map(column).mkString(", "),
      if (m.parallel) "Parallel" else "Sequential", yesNo(m.weighted), yesNo(m.pruning)))
    TableIO.emit("table2",
      TableIO.render("Table 2: Comparison of Algorithms Across Key Dimensions",
        Seq("System", "Density Metric Support", "Parallelizability", "Weighted Graph", "Pruning"),
        rows))
  }

  /** Table 2's data, for assertions: name -> (metrics, parallel, weighted, pruning). */
  val capabilities: Map[String, (Set[String], Boolean, Boolean, Boolean)] =
    Method.table2.map(m => m.name -> (m.metrics.map(column).toSet, m.parallel, m.weighted, m.pruning)).toMap

  // ---------------------------------------------------------------- Table 3
  final case class PruningStats(roundsPlain: Int, roundsGpo: Int, longTail: Long,
                                roundsLpo: Int, sparse: Long) {
    def redGpo: Double = 100.0 * (roundsPlain - roundsGpo) / roundsPlain
    def redLpo: Double = 100.0 * (roundsPlain - roundsLpo) / roundsPlain
  }

  /** Table 3's ε, 0: the tightest-batch regime, where Lemma 4.1 gives no
    * shrink guarantee and the long tail manifests. (The paper's own Table-3
    * round counts far exceed the ε=0.1 bound of Lemma 4.1 — its tail
    * experiment likewise runs with a near-zero effective ε; at ε≥0.1 our
    * analogues peel in a handful of giant batches and there is no tail.)
    */
  private val PruningEps = 0.0

  def pruningStats(metric: Metric, d: Dataset): PruningStats = {
    def cfg(g: Boolean, l: Boolean) =
      DupinLocal.Config(eps = PruningEps, gpo = g, lpo = l, threads = Runner.threads)
    val plain = DupinLocal.run(metric, d.graph, cfg(g = false, l = false))
    val gpo = DupinLocal.run(metric, d.graph, cfg(g = true, l = false))
    val lpo = DupinLocal.run(metric, d.graph, cfg(g = true, l = true))
    PruningStats(plain.rounds, gpo.rounds, gpo.longTailPeels, lpo.rounds, lpo.sparseTrims)
  }

  def table3(): (String, Map[String, PruningStats]) = {
    val d = Datasets("la")
    val names = Metric.edgeMetrics.map(_.name)
    val stats = Metric.edgeMetrics.map(m => m.name -> pruningStats(m, d)).toMap
    def row(label: String, paperKey: String, cell: PruningStats => String) =
      label +: names.flatMap { m =>
        Seq(PaperNumbers.table3((paperKey, m)), cell(stats(m)))
      }
    val headers = "Quantity" +: names.flatMap(m => Seq(s"$m paper", s"$m ours"))
    val rows = Seq(
      row("Rounds without GPO", "RoundsPlain", s => s.roundsPlain.toString),
      row("Rounds with GPO", "RoundsGPO", s => s.roundsGpo.toString),
      row("Long-tail vertices", "LongTail", s => s.longTail.toString),
      row("% Reduction (GPO)", "RedGPO", s => f"${s.redGpo}%.2f%%"),
      row("Rounds with LPO", "RoundsLPO", s => s.roundsLpo.toString),
      row("Sparse vertices", "Sparse", s => s.sparse.toString),
      row("% Reduction (LPO)", "RedLPO", s => f"${s.redLpo}%.2f%%"),
    )
    (TableIO.emit("table3",
      TableIO.render(s"Table 3: Impact of GPO and LPO on peeling rounds (dataset la, eps=$PruningEps)",
        headers, rows)), stats)
  }

  // ---------------------------------------------------------------- Table 4
  def table4(): (String, Seq[Dataset]) = {
    val ds = Datasets.tableOrder.map(Datasets(_))
    val rows = ds.map { d =>
      val p = PaperNumbers.table4(d.name)
      Seq(d.name, p._1, d.n.toString, p._2, d.m.toString, p._3, f"${d.avgDegree}%.1f", d.kind)
    }
    (TableIO.emit("table4",
      TableIO.render("Table 4: Dataset statistics (paper graphs vs our ~1/1000-scale analogues)",
        Seq("Dataset", "|V| paper", "|V| ours", "|E| paper", "|E| ours",
            "deg paper", "deg ours", "Type"), rows)), ds)
  }

  // ----------------------------------------------------- Tables 5/7 (edge)
  type Sweep = Map[(String, String, String), Runner.Outcome] // (ds, method, metric)

  /** `methods` × `metrics` on each dataset in table order, the dataset
    * named `ds` given by `dataset(ds)`.
    */
  private def sweep(methods: Seq[String], metrics: Seq[Metric], dataset: String => Dataset): Sweep =
    (for (ds <- Datasets.tableOrder; method <- methods; m <- metrics) yield {
      val d = dataset(ds)
      val out = Runner.run(method, m, d)
      System.err.println(s"[sweep] ${d.name} $method ${column(m)} -> ${out.timeCell}s g=${out.densityCell}")
      (ds, method, column(m)) -> out
    }).toMap

  lazy val edgeSweep: Sweep = sweep(Runner.edgeMethods, Metric.edgeMetrics, Datasets(_))
  lazy val cliqueSweep: Sweep = sweep(Runner.cliqueMethods, Metric.cliqueMetrics, Datasets.cliqueVariant)

  private def sweepTable(tag: String, title: String, sweep: Sweep, methods: Seq[String],
                         metrics: Seq[Metric], paper: Map[(String, String, String), String],
                         cell: Runner.Outcome => String,
                         extraRows: Seq[Seq[String]] = Nil): String = {
    val names = metrics.map(column)
    val headers = Seq("Dataset", "Method") ++ names.flatMap(m => Seq(s"$m paper", s"$m ours"))
    val rows = for {
      ds <- Datasets.tableOrder
      method <- methods
    } yield Seq(ds, method) ++ names.flatMap { m =>
      Seq(paper.getOrElse((ds, method, m), "-"), cell(sweep((ds, method, m))))
    }
    TableIO.emit(tag, TableIO.render(title, headers, rows ++ extraRows))
  }

  /** Supplemental Dupin-Spark rows for Table 5 (the dataflow engine timed
    * end-to-end on the two smallest datasets). */
  def sparkRows(spark: SparkSession): Seq[Seq[String]] =
    for (ds <- Seq("gfg", "bio")) yield {
      val d = Datasets(ds)
      val cells = Metric.edgeMetrics.flatMap { m =>
        val out = Runner.runSpark(spark, m, d)
        System.err.println(s"[spark] $ds ${m.name} -> ${out.timeCell}s g=${out.densityCell}")
        Seq("-", out.timeCell)
      }
      Seq(ds, "Dupin(Spark)") ++ cells
    }

  def table5(spark: Option[SparkSession] = None): String =
    sweepTable("table5", "Table 5: Runtime (s), DG/DW/FD — paper@128t vs ours@" +
      s"${Runner.threads}t on 1/1000-scale analogues",
      edgeSweep, Runner.edgeMethods, Metric.edgeMetrics, PaperNumbers.table5, _.timeCell,
      extraRows = spark.map(sparkRows).getOrElse(Nil))

  def table7(): String =
    sweepTable("table7", "Table 7: Density, DG/DW/FD (paper graphs vs our analogues)",
      edgeSweep, Runner.edgeMethods, Metric.edgeMetrics, PaperNumbers.table7, _.densityCell)

  def table6(): String =
    sweepTable("table6", "Table 6: Runtime (s), TDS/kCLiDS-4 (clique-capped analogues)",
      cliqueSweep, Runner.cliqueMethods, Metric.cliqueMetrics, PaperNumbers.table6, _.timeCell)

  def table8(): String =
    sweepTable("table8", "Table 8: Density, TDS/kCLiDS-4 (clique-capped analogues)",
      cliqueSweep, Runner.cliqueMethods, Metric.cliqueMetrics, PaperNumbers.table8, _.densityCell)

  // ---------------------------------------------------------------- Table 9
  /** Latency scale mapping our ~1/1000-scale latencies onto the
    * production-size timeline (DESIGN.md §3); ordering is scale-invariant. */
  val latencyScale: Double = sys.env.get("LAT_SCALE").map(_.toDouble).getOrElse(3000.0)

  final case class CaseCell(latency: Option[Double], ratio: Option[Double]) {
    def lat: String = latency.map(l => f"$l%.2f").getOrElse("TLE")
    def r: String = ratio.map(x => f"${100 * x}%.1f%%").getOrElse("TLE")
  }

  def table9(): (String, Map[(String, String), CaseCell]) = {
    val d = Datasets.grabStream
    val stream = PreventionSim.stream(window = 14400.0)
    val methods = Seq("Dupin", "Spade", "GBBS")
    val metrics = Metric.edgeMetrics :+ TDS
    // The deployed Dupin is the full system — GPO+LPO pruning on.
    def runAs(method: String) = if (method == "Dupin") "DupinLPO" else method
    // A metric the method does not support has no cell ('-' in the paper).
    val cells = (for {
      method <- methods
      m <- metrics if Method(runAs(method)).metrics.contains(m)
    } yield {
      val cell = Runner.run(runAs(method), m, d) match {
        case Runner.Ok(sec, _, _) =>
          val simLatency = sec * latencyScale
          CaseCell(Some(simLatency), Some(PreventionSim.preventionRatio(stream, simLatency)))
        case Runner.Tle => CaseCell(None, None)
      }
      System.err.println(s"[case] $method ${m.name} -> L=${cell.lat} R=${cell.r}")
      (method, m.name) -> cell
    }).toMap
    val headers = Seq("Method") ++ metrics.map(_.name).flatMap(m =>
      Seq(s"$m L paper", s"$m L ours", s"$m R paper", s"$m R ours"))
    val rows = methods.map { method =>
      Seq(method) ++ metrics.flatMap { m =>
        val p = PaperNumbers.table9.getOrElse((method, m.name), ("-", "-"))
        val (lc, rc) = cells.get((method, m.name)).fold(("-", "-"))(c => (c.lat, c.r))
        Seq(p._1, lc, p._2, rc)
      }
    }
    (TableIO.emit("table9",
      TableIO.render(s"Table 9: Latency (sim s, scale=$latencyScale) vs Prevention Ratio",
        headers, rows)), cells)
  }

  // --------------------------------------------------------------- Table 10
  /** Hardware proxy: old CPU ≈ 4 threads, modern CPU ≈ 16 threads. The
    * paper's Table 10 runs on soc; at 1/1000 scale soc finishes in tens of
    * milliseconds where scheduler noise swamps scaling, so we use the
    * largest analogue (la) — same comparison, clearer signal.
    */
  def table10(): (String, Map[(String, String, Int), Runner.Outcome]) = {
    val d = Datasets("la")
    val dc = Datasets.cliqueVariant("la")
    // The paper's rows: each system on the metrics it reports there.
    val runs = for {
      method <- Seq("Spade", "FWA", "GBBS", "PBBS", "Dupin")
      m <- Method(method).metrics if PaperNumbers.table10.contains((method, column(m)))
    } yield (method, m, if (m.edgeBased) d else dc)
    val threadLevels = Seq(4, 16)
    // Untimed warm-up pass: the first execution of each engine pays JIT
    // compilation, which would otherwise masquerade as thread scaling.
    runs.foreach { case (method, m, ds) => Runner.run(method, m, ds, t = 16) }
    val cells = (for {
      (method, m, ds) <- runs
      t <- threadLevels
    } yield {
      val out = Runner.run(method, m, ds, t = t)
      System.err.println(s"[t10] $method ${column(m)} t=$t -> ${out.timeCell}")
      (method, column(m), t) -> out
    }).toMap
    val headers = Seq("Method", "Metric", "X5650 paper", "ours t=4", "EPYC paper", "ours t=16")
    val rows = runs.map { case (method, metric, _) =>
      val m = column(metric)
      val p = PaperNumbers.table10((method, m))
      Seq(method, m, p._1, cells((method, m, 4)).timeCell, p._2, cells((method, m, 16)).timeCell)
    }
    (TableIO.emit("table10",
      TableIO.render("Table 10: Hardware comparison proxied by thread count " +
        "(paper: soc on X5650/EPYC; ours: la at t=4/t=16)",
        headers, rows)), cells)
  }
}
