package repro.exp

import repro.baselines._
import repro.core._
import repro.data.Dataset
import repro.local.{DupinLocal, LocalGraph, PeelResult}

/** One system of the paper's Table 2: its capabilities as Table 2 prints
  * them, and how [[Runner.run]] times it on a dataset.
  *
  * @param name   the key of the sweeps and of [[PaperNumbers]]
  * @param label  Table 2's System cell
  * @param run    (metric, dataset, threads, deadline) to a timed table cell;
  *               throws [[repro.local.TleException]] past the deadline
  */
final case class Method(name: String, label: String, metrics: Seq[Metric],
                        parallel: Boolean, weighted: Boolean, pruning: Boolean,
                        run: (Metric, Dataset, Int, Long) => Runner.Ok)

/** The registry: the only place that says which system supports which
  * metric. Table 2, the sweeps' row orders and Table 9's `-` cells read it.
  */
object Method {

  /** A parallel system timed around one peeling call, which gets the run's
    * thread count and deadline. Wall-clock includes any metric preparation
    * the system performs itself (as in the paper, except GBBS, whose
    * weighted inputs the paper precomputes offline; so do we, via
    * `metric.localState`, which every local system shares). The dataset's
    * CSR graph is built before the clock starts.
    */
  private def peeling(name: String, label: String, metrics: Seq[Metric],
                      weighted: Boolean = false, pruning: Boolean = false)(
                      peel: (Metric, LocalGraph, Int, Long) => PeelResult): Method =
    Method(name, label, metrics, parallel = true, weighted, pruning, { (metric, d, t, deadline) =>
      val g = d.graph
      Runner.timed(peel(metric, g, t, deadline))
    })

  private def bucket(metric: Metric, g: LocalGraph, t: Int, deadline: Long) =
    BucketPeeling.run(metric, g, threads = t, deadline = deadline)

  /** Dupin at ε = 0.1, with GPO and LPO both off or both on. */
  private def dupin(pruned: Boolean)(metric: Metric, g: LocalGraph, t: Int, deadline: Long) =
    DupinLocal.run(metric, g,
      DupinLocal.Config(eps = 0.1, gpo = pruned, lpo = pruned, threads = t, deadline = deadline))

  /** The eight systems of Table 2, in its row order. */
  val table2: Seq[Method] = Seq(
    Method("Spade", "Spade", Metric.all, parallel = false, weighted = true, pruning = false,
      (metric, d, _, deadline) => Runner.spadeAvgBatch(metric, d, deadline)),
    peeling("GBBS", "GBBS*", Metric.edgeMetrics)(bucket),
    peeling("PKMC", "PKMC*", Metric.edgeMetrics)((metric, g, _, deadline) => Pkmc.run(metric, g, deadline)),
    peeling("FWA", "FWA*", Metric.edgeMetrics)((metric, g, _, deadline) => Fwa.run(metric, g, deadline = deadline)),
    peeling("ALENEX", "ALENEX*", Metric.edgeMetrics)((metric, g, t, deadline) =>
      Alenex.run(metric, g, threads = t, deadline = deadline)),
    peeling("kCLIST", "kCLIST", Metric.cliqueMetrics)((metric, g, t, deadline) =>
      Kclist.run(metric, g, deadline, threads = t)),
    peeling("PBBS", "PBBS", Metric.cliqueMetrics)(bucket),
    peeling("Dupin", "Dupin", Metric.all, weighted = true, pruning = true)(dupin(pruned = false)),
  )

  /** Table 2's systems, and the full-pruning Dupin that Table 9 deploys. */
  val all: Seq[Method] =
    table2 :+ peeling("DupinLPO", "Dupin", Metric.all, weighted = true, pruning = true)(dupin(pruned = true))

  def apply(name: String): Method =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(s"unknown method $name"))

  /** Table 2's systems that support every metric of `family`, in row order. */
  def supporting(family: Seq[Metric]): Seq[String] =
    table2.filter(m => family.forall(m.metrics.contains)).map(_.name)
}
