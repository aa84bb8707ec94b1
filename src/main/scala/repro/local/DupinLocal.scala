package repro.local

import repro.core.{Metric, PeelState}
import scala.collection.mutable

/** Dupin's peeling policy, Algorithms 2 (plain), 3 (GPO) and 4 (LPO), over
  * any [[repro.core.PeelState]]: the local CSR states of [[repro.core.Metric]]
  * and the Spark engine's driver-side state ([[repro.core.SparkPeeling]]),
  * whose `removeBatch` is one distributed pass. Both engines therefore make
  * the same selections and record the same snapshots.
  *
  * Per round: (a) snapshot the peeling weights `w_u(S_{i-1})` with a scan
  * of the active vertices (parallel from [[Par.MinPar]] of them on),
  * (b) compute `τ` from the density (and, under GPO, the global threshold
  * `τ_max`), (c) select all vertices with `w ≤ τ` in the same scan, (d)
  * apply the removals. Under LPO, an inner loop then trims every vertex
  * with `w_u(S_i) < g(S_i)` (Lemma 5.2 guarantees each trim increases
  * density) until none is left.
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
    // The frontier: the active vertices in ascending id order, the first
    // `live` entries of `front`. Every scan walks it rather than 0 until n,
    // so a round costs |S| and not n; it is compacted after each removal.
    val front = Array.range(0, n).filter(state.isActive)
    var live = front.length
    val mark = new Array[Boolean](n) // per-round selection scratch, by frontier position
    val wSnap = new Array[Double](n) // w_u(S_{i-1}) snapshot for this round, by position

    /** The frontier entries marked in `mark`, ascending. */
    def marked(): Array[Int] = {
      val b = new mutable.ArrayBuilder.ofInt
      var i = 0
      while (i < live) { if (mark(i)) b += front(i); i += 1 }
      b.result()
    }
    /** Remove `us`, record them and the new snapshot, and drop them from the frontier. */
    def peel(us: Array[Int]): Unit = {
      state.removeBatch(us, cfg.threads)
      tracker.removed(us)
      tracker.snapshot(state.density)
      var i = 0; var j = 0
      while (i < live) { val u = front(i); if (state.isActive(u)) { front(j) = u; j += 1 }; i += 1 }
      live = j
    }

    while (state.activeCount > 0 && rounds < cfg.maxRounds) {
      Deadline.check(cfg.deadline, "DupinLocal")
      rounds += 1
      val gCur = state.density
      val base = k * (1 + cfg.eps) * gCur
      if (cfg.gpo || cfg.lpo) tauMax = math.max(tauMax, gCur / (k * (1 + cfg.eps)))
      val tau = if (cfg.gpo || cfg.lpo) math.max(tauMax, base) else base

      // (a,c) parallel snapshot + selection against S_{i-1}
      Par.parallelFor(live, cfg.threads) { p =>
        val w = state.w(front(p))
        wSnap(p) = w
        mark(p) = w <= tau
      }
      var p = 0
      while (p < live) {
        if (mark(p) && wSnap(p) > base) longTail += 1 // peeled only thanks to τ_max
        p += 1
      }
      var batch = marked()
      if (batch.isEmpty) {
        // Numerically impossible in exact arithmetic (min w ≤ k·g ≤ τ);
        // guard against FP round-off by peeling the arg-min.
        var best = -1; var bw = Double.MaxValue
        p = 0
        while (p < live) {
          val v = front(p)
          if (state.w(v) < bw) { bw = state.w(v); best = v }
          p += 1
        }
        batch = Array(best)
      }
      // (d) apply removals (clique states fan the update work across threads)
      peel(batch)

      // LPO inner loop (Alg. 4 lines 18–24)
      if (cfg.lpo) {
        var trimmed = true
        while (trimmed && state.activeCount > 0) {
          Deadline.check(cfg.deadline, "DupinLocal/LPO")
          val gi = state.density
          val tau2 = math.max(tauMax, gi)
          Par.parallelFor(live, cfg.threads) { q => mark(q) = state.w(front(q)) < tau2 }
          val trims = marked()
          trimmed = trims.nonEmpty
          if (trimmed) {
            peel(trims)
            sparse += trims.length
            tauMax = math.max(tauMax, state.density / (k * (1 + cfg.eps)))
          }
        }
      }
    }
    tracker.result(rounds, longTail, sparse, stillActive = java.util.Arrays.copyOf(front, live))
  }
}
