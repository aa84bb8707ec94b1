package repro.local

import repro.core.{Metric, PeelState}
import scala.collection.mutable

/** Dupin's peeling policy, Algorithms 2 (plain), 3 (GPO) and 4 (LPO), over
  * any [[repro.core.PeelState]]: the local CSR states of [[repro.core.Metric]]
  * and the Spark engine's driver-side state ([[repro.core.SparkPeeling]]),
  * whose `removeBatch` is one distributed pass. Both engines therefore make
  * the same selections and record the same snapshots.
  *
  * Per round: (a) snapshot the peeling weights `w_u(S_{i-1})` with a
  * parallel scan, (b) compute `τ` from the density (and, under GPO, the
  * global threshold `τ_max`), (c) select all vertices with `w ≤ τ` in
  * parallel, (d) apply the removals. Under LPO, an inner loop then trims
  * every vertex with `w_u(S_i) < g(S_i)` (Lemma 5.2 guarantees each trim
  * increases density) until none is left.
  */
object DupinLocal {

  /** @param maxRounds stop after this many outer rounds; a run cut short
    *                  this way reports `truncated`
    */
  final case class Config(
      eps: Double = 0.1,
      gpo: Boolean = false,
      lpo: Boolean = false,
      threads: Int = Par.defaultThreads,
      deadline: Long = Long.MaxValue,
      maxRounds: Int = 100000)

  def run(metric: Metric, g: LocalGraph, cfg: Config = Config()): PeelResult =
    runOn(metric.localState(g, cfg.threads), metric.k, cfg)

  def runOn(state: PeelState, k: Int, cfg: Config): PeelResult = {
    val n = state.n
    val tracker = new PeelTracker
    tracker.snapshot(state.density)
    var tauMax = 0.0
    var rounds = 0
    var longTail = 0L
    var sparse = 0L
    val mark = new Array[Boolean](n) // per-round selection scratch
    val wSnap = new Array[Double](n) // w_u(S_{i-1}) snapshot for this round

    while (state.activeCount > 0 && rounds < cfg.maxRounds) {
      Deadline.check(cfg.deadline, "DupinLocal")
      rounds += 1
      val gCur = state.density
      val base = k * (1 + cfg.eps) * gCur
      if (cfg.gpo || cfg.lpo) tauMax = math.max(tauMax, gCur / (k * (1 + cfg.eps)))
      val tau = if (cfg.gpo || cfg.lpo) math.max(tauMax, base) else base

      // (a,c) parallel snapshot + selection against S_{i-1}
      Par.parallelFor(n, cfg.threads) { u =>
        if (state.isActive(u)) {
          val w = state.w(u)
          wSnap(u) = w
          mark(u) = w <= tau
        } else mark(u) = false
      }
      val batch = new mutable.ArrayBuffer[Int]()
      var u = 0
      while (u < n) {
        if (mark(u)) {
          batch += u
          if (wSnap(u) > base) longTail += 1 // peeled only thanks to τ_max
        }
        u += 1
      }
      if (batch.isEmpty) {
        // Numerically impossible in exact arithmetic (min w ≤ k·g ≤ τ);
        // guard against FP round-off by peeling the arg-min.
        var best = -1; var bw = Double.MaxValue
        var v = 0
        while (v < n) {
          if (state.isActive(v) && state.w(v) < bw) { bw = state.w(v); best = v }
          v += 1
        }
        batch += best
      }
      // (d) apply removals (clique states fan the update work across threads)
      state.removeBatch(batch.toArray, cfg.threads)
      batch.foreach(tracker.removed)
      tracker.snapshot(state.density)

      // LPO inner loop (Alg. 4 lines 18–24)
      if (cfg.lpo) {
        var trimmed = true
        while (trimmed && state.activeCount > 0) {
          Deadline.check(cfg.deadline, "DupinLocal/LPO")
          val gi = state.density
          val tau2 = math.max(tauMax, gi)
          val trims = new mutable.ArrayBuffer[Int]()
          Par.parallelFor(n, cfg.threads) { v =>
            mark(v) = state.isActive(v) && state.w(v) < tau2
          }
          var v = 0
          while (v < n) { if (mark(v)) trims += v; v += 1 }
          trimmed = trims.nonEmpty
          if (trimmed) {
            state.removeBatch(trims.toArray, cfg.threads)
            trims.foreach(tracker.removed)
            sparse += trims.size
            tracker.snapshot(state.density)
            tauMax = math.max(tauMax, state.density / (k * (1 + cfg.eps)))
          }
        }
      }
    }
    tracker.result(rounds, longTail, sparse, stillActive = state.activeSet)
  }
}
