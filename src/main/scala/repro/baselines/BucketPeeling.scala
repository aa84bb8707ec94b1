package repro.baselines

import repro.core.{Metric, MetricState}
import repro.local.{Deadline, LocalGraph, Par, PeelResult, PeelTracker}
import java.util.concurrent.atomic.DoubleAccumulator
import scala.collection.mutable

/** GBBS / PBBS analogue: bucket-granular parallel peeling.
  *
  * In GBBS the unit of parallel peeling is a *bucket* — all vertices whose
  * current peeling weight equals the minimum. On unweighted graphs (DG)
  * buckets are large; on weighted graphs (DW/FD) weights are real-valued so
  * almost every bucket is a singleton, collapsing to near-sequential
  * behaviour — exactly the pathology §6.2 attributes to GBBS. PBBS is the
  * same scheme driving the clique metrics (TDS/kCLiDS).
  *
  * Per round: parallel arg-min reduction over active weights, then peel
  * every vertex within `Tol` of the minimum.
  */
object BucketPeeling {

  /** How far above the minimum weight a vertex still falls in its bucket. */
  private val Tol = 1e-12

  def run(metric: Metric, g: LocalGraph,
          threads: Int = Par.defaultThreads,
          deadline: Long = Long.MaxValue): PeelResult =
    runOn(metric.localState(g, threads), threads, deadline)

  def runOn(state: MetricState, threads: Int, deadline: Long): PeelResult = {
    val n = state.n
    val tracker = new PeelTracker
    tracker.snapshot(state.density)
    var rounds = 0
    while (state.activeCount > 0) {
      Deadline.check(deadline, "BucketPeeling")
      rounds += 1
      val minAcc = new DoubleAccumulator((a, b) => math.min(a, b), Double.MaxValue)
      Par.parallelFor(n, threads) { u =>
        if (state.isActive(u)) minAcc.accumulate(state.w(u))
      }
      val m = minAcc.get()
      val bucket = new mutable.ArrayBuffer[Int]()
      var u = 0
      while (u < n) {
        if (state.isActive(u) && state.w(u) <= m + Tol) bucket += u
        u += 1
      }
      val us = bucket.toArray
      state.removeBatch(us, threads)
      tracker.removed(us)
      tracker.snapshot(state.density)
    }
    tracker.result(rounds)
  }
}
