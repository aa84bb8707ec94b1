package repro.baselines

import repro.core.Metric
import repro.local.{DupinLocal, LocalGraph, Par, PeelResult}

/** ALENEX analogue (Sukprasert et al., ALENEX'24 "Practical parallel
  * algorithms for near-optimal densest subgraphs"): near-optimality comes
  * from (a) a much smaller ε than Dupin's default and (b) greedy++-style
  * repeated peeling passes, without Dupin's GPO/LPO pruning.
  *
  * This captures ALENEX's observed profile in Tables 5/7: densities close
  * to sequential peeling, runtimes several times Dupin's (more passes,
  * more and longer-tailed rounds).
  */
object Alenex {

  /** ε an order of magnitude tighter than Dupin's default 0.1. */
  val DefaultEps = 0.01

  /** Iterated-peeling passes (greedy++ flavour). */
  val DefaultPasses = 4

  def run(metric: Metric, g: LocalGraph,
          threads: Int = Par.defaultThreads,
          deadline: Long = Long.MaxValue): PeelResult = {
    val runs = (1 to DefaultPasses).map { _ =>
      DupinLocal.run(metric, g,
        DupinLocal.Config(eps = DefaultEps, gpo = false, lpo = false,
                          threads = threads, deadline = deadline))
    }
    runs.maxBy(_.bestDensity)
  }
}

/** kCLIST analogue (Danisch, Balalau, Sozio, WWW'18): sequential min-peel
  * over clique counts — the clique-metric counterpart of Charikar peeling.
  * kCLIST parallelizes the clique *listing*; its peeling loop is ordered,
  * so on the shared substrate it behaves as exact sequential clique peel.
  */
object Kclist {
  /** kCLIST parallelizes the clique *listing* (init) but peels in order —
    * `threads` funds only the counting pass.
    */
  def run(metric: Metric, g: LocalGraph, deadline: Long = Long.MaxValue,
          threads: Int = Par.defaultThreads): PeelResult = {
    require(!metric.edgeBased, s"kCLIST drives clique metrics, not ${metric.name}")
    repro.local.SequentialPeeling.runOn(metric.localState(g, threads), deadline)
  }
}
