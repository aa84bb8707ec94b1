package repro.local

import repro.core.{Metric, MetricState}
import scala.collection.mutable

/** Tracks the removal order and the best density snapshot so the best set
  * can be reconstructed as a suffix of the removal order (peeling always
  * visits nested sets S_0 ⊃ S_1 ⊃ …).
  */
final class PeelTracker {
  private val order       = new mutable.ArrayBuilder.ofInt
  private var bestDensity = Double.NegativeInfinity
  private var bestCount   = 0
  private val hist        = Vector.newBuilder[Double]

  def removed(u: Int): Unit = order += u

  /** Record the removal of `us`, in array order. */
  def removed(us: Array[Int]): Unit = order.addAll(us)

  /** Record the density of the current snapshot (after `order.length` removals). */
  def snapshot(density: Double): Unit = {
    hist += density
    if (density > bestDensity) { bestDensity = density; bestCount = order.length }
  }

  def result(rounds: Int, longTail: Long = 0, sparse: Long = 0,
             stillActive: Array[Int] = Array.empty): PeelResult = {
    val all = order.result()
    val best = java.util.Arrays.copyOfRange(all, bestCount, all.length + stillActive.length)
    System.arraycopy(stillActive, 0, best, all.length - bestCount, stillActive.length)
    java.util.Arrays.sort(best)
    PeelResult(best, bestDensity, rounds, longTail, sparse, hist.result(), all,
      truncated = stillActive.nonEmpty)
  }
}

/** Algorithm 1: exact greedy peeling — always remove the vertex with the
  * minimum peeling weight. 2-approx for DG/DW/FD, k-approx for TDS/kCLiDS
  * (Thms 2.1/2.2). This is the sequential baseline (Charikar; also Spade's
  * static peel) and the reference the parallel engines are tested against.
  *
  * Uses a lazy min-heap: peeling weights only decrease, so a popped entry
  * that is stale (larger than the current weight) is re-pushed with the
  * current weight; correctness of min extraction is preserved.
  */
object SequentialPeeling {

  def run(metric: Metric, g: LocalGraph, deadline: Long = Long.MaxValue): PeelResult =
    runOn(metric.localState(g), deadline)

  /** Peel an existing state down to empty (also used by Spade's suffix re-peel). */
  def runOn(state: MetricState, deadline: Long = Long.MaxValue): PeelResult = {
    val tracker = new PeelTracker
    tracker.snapshot(state.density)
    // min-heap of (weight, vertex); Ordering reversed for PriorityQueue (max-heap by default)
    val heap = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
    var u = 0
    while (u < state.n) { if (state.isActive(u)) heap.enqueue((state.w(u), u)); u += 1 }
    var rounds = 0
    var steps = 0
    while (state.activeCount > 0) {
      val (wOld, v) = heap.dequeue()
      // Lazy deletion: a fresh entry is pushed whenever a weight decreases
      // (below, after each removal), so an entry matching the current
      // weight is a true minimum; anything else is stale and skipped.
      if (state.isActive(v) && wOld <= state.w(v) + 1e-12) {
        val affected = state.activeNeighbors(v)
        state.remove(v)
        tracker.removed(v)
        tracker.snapshot(state.density)
        rounds += 1
        affected.foreach { x =>
          if (state.isActive(x)) heap.enqueue((state.w(x), x))
        }
      }
      steps += 1
      if ((steps & 0x3ff) == 0) Deadline.check(deadline, "SequentialPeeling")
    }
    tracker.result(rounds)
  }
}
