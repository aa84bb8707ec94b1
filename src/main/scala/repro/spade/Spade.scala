package repro.spade

import repro.core._
import repro.local._
import scala.collection.mutable

/** Spade analogue: incremental peeling on an evolving graph (Jiang et al.,
  * VLDB'23 / Spade+).
  *
  * Maintains the peeling *order* of the current graph. When a batch ΔG
  * arrives, the earliest order position p touched by ΔG is found and the
  * order suffix from p is re-peeled on the updated graph (the prefix's
  * removals are replayed first so suffix peeling weights are exact). This
  * reproduces Spade's cost profile: edges landing in already-sparse regions
  * are cheap, while fraud-forming edges near the dense head force a
  * near-complete sequential re-peel.
  *
  * Weight semantics per metric (kept consistent with [[Metric.prepare]] so
  * densities are comparable across systems):
  *   - DG: 1 per *distinct* vertex pair;
  *   - DW: raw transaction weights summed over parallel edges;
  *   - FD: `1/log(x+c)` *frozen at the pair's first insertion* — Spade's
  *     static-edge-weight assumption. `trueDensity` recomputes the weights
  *     from current degrees, so `densityError` is exactly the accumulated
  *     staleness the paper's Fig. 12 / §6.4 case study measures.
  *   - TDS/kCLiDS: clique counts; an inserted edge shifts counts of
  *     arbitrary common neighbors, so the incremental shortcut degenerates
  *     to a full re-peel (why the paper reports Spade-TDS TLEs at scale).
  */
final class Spade(metric: Metric, val n: Int,
                  vertexWeights: Array[Double] = null,
                  deadline: Long = Long.MaxValue) {

  private val vw: Array[Double] =
    if (vertexWeights != null) vertexWeights else new Array[Double](n)

  /** pair key (min*n+max) → summed raw weight. */
  private val pairRaw = new java.util.HashMap[Long, java.lang.Double]()
  /** pair key → effective weight frozen at first insertion (FD model). */
  private val pairStale = new java.util.HashMap[Long, java.lang.Double]()
  /** distinct-neighbor degree (matches LocalGraph.degree). */
  private val degree = new Array[Int](n)
  private var inserted = 0

  private var order: Array[Int] = Array.empty
  private var posOf: Array[Int] = Array.fill(n)(Int.MaxValue)
  /** density of the suffix starting at each order position, from the most
    * recent peel that covered it (prefix entries are *updated*, not
    * re-peeled, on insert — that is Spade's incremental shortcut). */
  private var suffixDensity: Array[Double] = Array.empty

  final case class BatchStats(affectedPos: Int, suffixSize: Int, reported: Double)

  private def key(a: Int, b: Int): Long =
    if (a < b) a.toLong * n + b else b.toLong * n + a

  private def frozenWeight(u: Int, v: Int): Double =
    math.min(FD.term(degree(u)), FD.term(degree(v)))

  private def pairs: Iterable[(Int, Int, Double, Double)] = {
    val buf = new mutable.ArrayBuffer[(Int, Int, Double, Double)](pairRaw.size)
    pairRaw.forEach { (k, raw) =>
      val a = (k / n).toInt; val b = (k % n).toInt
      buf += ((a, b, raw, pairStale.get(k)))
    }
    buf
  }

  /** Current graph with Spade's maintained effective weights. */
  private def spadeGraph(): LocalGraph = metric match {
    case DG => LocalGraph.fromEdges(n, pairs.map(p => (p._1, p._2, 1.0)))
    case DW => LocalGraph.fromEdges(n, pairs.map(p => (p._1, p._2, p._3)))
    case FD => LocalGraph.fromEdges(n, pairs.map(p => (p._1, p._2, p._4)), vw)
    case _  => LocalGraph.fromEdges(n, pairs.map(p => (p._1, p._2, p._3)))
  }

  /** Current graph with *fresh* effective weights under the metric (for FD
    * this recomputes 1/log(deg+c) from current degrees — what Spade's
    * static-weight assumption skips).
    */
  def freshGraph(): LocalGraph = {
    val raw = LocalGraph.fromEdges(n, pairs.map(p => (p._1, p._2, p._3)),
      if (metric == FD) vw else new Array[Double](n))
    if (metric.edgeBased) metric.prepare(raw) else raw
  }

  private def stateOn(g: LocalGraph): MetricState =
    if (metric.edgeBased) new EdgeMetricState(g) // weights already effective
    else metric.localState(g)

  /** Insert a batch of edges and incrementally repair the peeling order. */
  def insertBatch(batch: Iterable[(Int, Int, Double)]): BatchStats = {
    val touched = new mutable.ArrayBuffer[Int]()
    var addedW = 0.0
    val accepted = batch.filter { case (a, b, _) => a != b }
    // Degrees first reflect the whole batch, then frozen weights are
    // computed — a fresh single-batch build is exact; staleness accrues
    // only across batches.
    accepted.foreach { case (a, b, _) =>
      if (!pairRaw.containsKey(key(a, b))) {
        // mark now so in-batch duplicates don't double-count degrees
        pairRaw.put(key(a, b), 0.0)
        degree(a) += 1; degree(b) += 1
      }
    }
    accepted.foreach { case (a, b, w) =>
      val k = key(a, b)
      val before = pairRaw.get(k).doubleValue()
      val isNewPair = !pairStale.containsKey(k)
      pairRaw.put(k, before + w)
      if (isNewPair) pairStale.put(k, frozenWeight(a, b))
      inserted += 1
      addedW += (metric match {
        case DG => if (isNewPair) 1.0 else 0.0
        case DW => w
        case FD => if (isNewPair) pairStale.get(k).doubleValue() else 0.0
        case _  => 0.0
      })
      touched += a; touched += b
    }
    val p =
      if (order.isEmpty || !metric.edgeBased) 0
      else math.min(if (touched.isEmpty) order.length else touched.map(posOf).min, order.length)
    // Prefix suffixes all gain the batch's added weight (their vertex sets
    // are supersets of suffix(p), which contains every touched endpoint).
    var q = 0
    while (q < p) { suffixDensity(q) += addedW / (order.length - q); q += 1 }
    val g = spadeGraph()
    val state = stateOn(g)
    // Replay the untouched prefix removals so suffix weights are exact.
    var i = 0
    while (i < p) { val u = order(i); if (state.isActive(u)) state.remove(u); i += 1 }
    val suffixSize = state.activeCount
    val res = SequentialPeeling.runOn(state, deadline)
    // Stitch: old prefix + new suffix order; the suffix peel's snapshot
    // history is the suffix density at each position.
    val newOrder = new Array[Int](n)
    val newSuffixDensity = new Array[Double](n + 1)
    i = 0
    while (i < p) { newOrder(i) = order(i); i += 1 }
    val removedOrder = res.order
    var j = 0
    while (j < removedOrder.length) { newOrder(p + j) = removedOrder(j); j += 1 }
    if (suffixDensity.nonEmpty) Array.copy(suffixDensity, 0, newSuffixDensity, 0, p)
    j = 0
    while (j < res.history.length && p + j <= n) {
      newSuffixDensity(p + j) = res.history(j); j += 1
    }
    order = newOrder.take(p + removedOrder.length)
    posOf = Array.fill(n)(Int.MaxValue)
    i = 0
    while (i < order.length) { posOf(order(i)) = i; i += 1 }
    suffixDensity = newSuffixDensity
    BatchStats(p, suffixSize, reportedDensity)
  }

  /** Best density according to Spade's maintained (possibly stale) state. */
  def reportedDensity: Double =
    if (suffixDensity.isEmpty) 0.0 else suffixDensity.max

  /** Ground-truth best density on the current graph with fresh weights. */
  def trueDensity: Double =
    SequentialPeeling.runOn(stateOn(freshGraph()), deadline).bestDensity

  /** Relative density error of the incremental result (Fig. 12's gap). */
  def densityError: Double = {
    val t = trueDensity
    if (t == 0.0) 0.0 else math.abs(reportedDensity - t) / t
  }

  def edgeCount: Int = inserted
}
