package repro

import repro.core.PeelState
import repro.local.{DupinLocal, PeelResult}
import scala.collection.mutable

/** Reference for [[repro.local.DupinLocal.runOn]]: the same policy as a
  * plain sequential loop that scans every vertex `0 until n` each round and
  * each LPO pass, with boxed buffers and its own removal log and best-set
  * reconstruction. The engine's frontier scans, parallel selection and
  * primitive builders must give `==` results to this.
  */
object PeelOracle {

  def runOn(state: PeelState, k: Int, cfg: DupinLocal.Config): PeelResult = {
    val n = state.n
    val order = mutable.ArrayBuffer[Int]()
    val hist = mutable.ArrayBuffer[Double]()
    var bestDensity = Double.NegativeInfinity
    var bestCount = 0
    def snapshot(): Unit = {
      val d = state.density
      hist += d
      if (d > bestDensity) { bestDensity = d; bestCount = order.size }
    }
    def peel(us: Seq[Int]): Unit = {
      state.removeBatch(us.toArray, cfg.threads)
      order ++= us
      snapshot()
    }
    snapshot()
    var tauMax = 0.0
    var rounds = 0
    var longTail = 0L
    var sparse = 0L
    while (state.activeCount > 0 && rounds < cfg.maxRounds) {
      rounds += 1
      val gCur = state.density
      val base = k * (1 + cfg.eps) * gCur
      if (cfg.gpo || cfg.lpo) tauMax = math.max(tauMax, gCur / (k * (1 + cfg.eps)))
      val tau = if (cfg.gpo || cfg.lpo) math.max(tauMax, base) else base
      val batch = (0 until n).filter(u => state.isActive(u) && state.w(u) <= tau)
      longTail += batch.count(state.w(_) > base)
      if (batch.isEmpty) {
        val active = (0 until n).filter(state.isActive)
        peel(Seq(active.minBy(state.w))) // the first of equal minima
      } else peel(batch)
      if (cfg.lpo) {
        var trimmed = true
        while (trimmed && state.activeCount > 0) {
          val tau2 = math.max(tauMax, state.density)
          val trims = (0 until n).filter(v => state.isActive(v) && state.w(v) < tau2)
          trimmed = trims.nonEmpty
          if (trimmed) {
            peel(trims)
            sparse += trims.size
            tauMax = math.max(tauMax, state.density / (k * (1 + cfg.eps)))
          }
        }
      }
    }
    val stillActive = (0 until n).filter(state.isActive)
    PeelResult((order.drop(bestCount) ++ stillActive).toArray.sorted, bestDensity, rounds,
      longTail, sparse, hist.toVector, order.toArray, truncated = stillActive.nonEmpty)
  }
}
