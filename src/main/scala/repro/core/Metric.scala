package repro.core

import repro.local.LocalGraph

/** A DSD density metric `g(S) = f(S)/|S|` in Dupin's framework (§2.1).
  *
  * A metric contributes two things:
  *   1. `prepare` — rewrite the raw graph's vertex/edge weights into the
  *      effective suspiciousness `a_i` / `c_ij` the metric peels on
  *      (identity for clique metrics, which peel on clique counts instead);
  *   2. `k` — the constant in the peeling threshold `k(1+ε)·g(S)` and the
  *      approximation ratio `k(1+ε)` (Thm 4.2): 2 for DG/DW/FD, clique size
  *      for TDS/kCLiDS.
  *
  * `localState` builds the incremental peeling-weight state used by every
  * local-engine algorithm.
  */
sealed trait Metric {
  def name: String
  def k: Int
  /** Whether peeling weights are edge sums (true) or clique counts (false). */
  def edgeBased: Boolean
  /** Effective-weight rewrite of the raw graph. */
  def prepare(g: LocalGraph): LocalGraph
  /** Incremental peeling state over the *prepared* graph. `threads` funds
    * the clique metrics' initial counting pass — parallel for the parallel
    * systems (Dupin, PBBS, kCLIST's listing), 1 for sequential ones.
    */
  def localState(g: LocalGraph, threads: Int = 1): MetricState =
    if (edgeBased) new EdgeMetricState(prepare(g))
    else new CliqueMetricState(g, k, threads)
}

object Metric {
  /** Fraudar's `c` in `c_ij = 1/log(x + c)` (Listing 1 uses 5). */
  val FraudarC = 5.0

  /** The five metrics of §2.1, in the paper's order. */
  val all: Seq[Metric] = Seq(DG, DW, FD, TDS, KCliDS(4))
  val edgeMetrics: Seq[Metric] = Seq(DG, DW, FD)
  val cliqueMetrics: Seq[Metric] = Seq(TDS, KCliDS(4))

  def byName(s: String): Metric = s match {
    case "DG" => DG
    case "DW" => DW
    case "FD" => FD
    case "TDS" => TDS
    case kc if kc.startsWith("kCLiDS") => KCliDS(kc.stripPrefix("kCLiDS-").toIntOption.getOrElse(4))
    case _ => throw new IllegalArgumentException(s"unknown metric $s")
  }
}

/** DG [Charikar'00]: f(S) = |E[S]| — every edge weighs 1, vertices 0. */
case object DG extends Metric {
  val name = "DG"; val k = 2; val edgeBased = true
  def prepare(g: LocalGraph): LocalGraph = {
    val ones = new Array[Double](g.nbrs.length)
    java.util.Arrays.fill(ones, 1.0)
    new LocalGraph(g.n, g.offsets, g.nbrs, ones, new Array[Double](g.n))
  }
}

/** DW [Gudapati et al.]: f(S) = Σ c_ij — raw edge weights, vertices 0. */
case object DW extends Metric {
  val name = "DW"; val k = 2; val edgeBased = true
  def prepare(g: LocalGraph): LocalGraph = g.mapVertexWeights(_ => 0.0)
}

/** FD (Fraudar [Hooi et al.]): f(S) = Σ a_i + Σ 1/log(x+c) where x is the
  * degree of the "object" endpoint. On general graphs we take the
  * higher-degree endpoint as the object (in customer→merchant bipartite
  * graphs that is the merchant, matching the paper's deployment).
  */
case object FD extends Metric {
  val name = "FD"; val k = 2; val edgeBased = true
  /** `1/log(x + c)` falls as x grows, so the weight at the higher-degree
    * endpoint is the smaller of the two endpoints' `t(u) = 1/log(deg(u)+c)`:
    * n logs instead of one per CSR entry, bit for bit the same weights.
    */
  def prepare(g: LocalGraph): LocalGraph = {
    val t = Array.tabulate(g.n)(u => 1.0 / math.log(g.degree(u) + Metric.FraudarC))
    val ew = new Array[Double](g.nbrs.length)
    var u = 0
    while (u < g.n) {
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { ew(i) = math.min(t(u), t(g.nbrs(i))); i += 1 }
      u += 1
    }
    new LocalGraph(g.n, g.offsets, g.nbrs, ew, g.vw)
  }
}

/** TDS [Tsourakakis'15]: f(S) = t(S), the triangle count of G[S]. */
case object TDS extends Metric {
  val name = "TDS"; val k = 3; val edgeBased = false
  def prepare(g: LocalGraph): LocalGraph = g
}

/** kCLiDS [Danisch et al.]: f(S) = number of k-cliques of G[S]. */
final case class KCliDS(cliqueK: Int) extends Metric {
  require(cliqueK == 3 || cliqueK == 4, "kCLiDS supported for k in {3,4}")
  val name = s"kCLiDS-$cliqueK"; val k = cliqueK; val edgeBased = false
  def prepare(g: LocalGraph): LocalGraph = g
}

/** What Dupin's round loop ([[repro.local.DupinLocal.runOn]]) needs of a
  * peeling state: the active set S over vertices `0 until n`, f(S), the
  * peeling weights `w_u(S)` (the decrease in f from removing u), and one
  * batched removal per peel. Reads (`w`, `f`) may be done from parallel
  * scans; `removeBatch` is called from a single thread. Implemented by the
  * local [[MetricState]]s and by the Spark engine's driver-side state
  * ([[SparkPeeling]]).
  */
trait PeelState {
  def n: Int
  def activeCount: Int
  def isActive(u: Int): Boolean
  def f: Double
  def w(u: Int): Double
  /** Remove the active vertices `us` (distinct) and update f and w. */
  def removeBatch(us: Array[Int], threads: Int): Unit
  /** Drop what the state keeps beyond its run, such as a cluster-side
    * table; a local state keeps nothing.
    */
  def release(): Unit = ()
  final def density: Double = if (activeCount == 0) 0.0 else f / activeCount
  /** Ids of the currently active vertices (sorted). */
  final def activeSet: Array[Int] = (0 until n).filter(isActive).toArray
}

/** Local mutable peeling state with incremental updates on removal, one
  * vertex at a time (`remove`, which the sequential and bucket peelers use)
  * or a batch at a time. `remove` must be called from a single thread.
  */
trait MetricState extends PeelState {
  def remove(u: Int): Unit
  /** The active vertices whose peeling weight can change when `u` is
    * removed (for both edge and clique metrics: u's active neighbors —
    * every k-clique through u lies inside N(u)). Heap-based peelers must
    * refresh these entries after `remove(u)`.
    */
  def activeNeighbors(u: Int): Array[Int]
  /** Remove a whole peeling batch. The default applies removals one by one;
    * states whose update work dominates (clique counts) override this with
    * a genuinely parallel implementation — the parallelism the paper's
    * engine gets from OpenMP's `updateNgh`.
    */
  def removeBatch(us: Array[Int], threads: Int): Unit = us.foreach(remove)
}

/** Edge-sum peeling state for DG/DW/FD: w_u = a_u + Σ_{v∈S∩N(u)} c_uv. */
final class EdgeMetricState(g: LocalGraph) extends MetricState {
  val n: Int = g.n
  private val act = new Array[Boolean](n)
  java.util.Arrays.fill(act, true)
  private var cnt = n
  private val wArr = EdgeMetricState.initialWeights(g)
  private var fVal = EdgeMetricState.initialF(g)

  def activeCount: Int = cnt
  def isActive(u: Int): Boolean = act(u)
  def f: Double = fVal
  def w(u: Int): Double = wArr(u)

  def activeNeighbors(u: Int): Array[Int] = {
    val buf = new scala.collection.mutable.ArrayBuffer[Int]()
    var i = g.offsets(u)
    while (i < g.offsets(u + 1)) { if (act(g.nbrs(i))) buf += g.nbrs(i); i += 1 }
    buf.toArray
  }

  def remove(u: Int): Unit = {
    require(act(u), s"remove($u): not active")
    fVal -= wArr(u)
    var i = g.offsets(u)
    while (i < g.offsets(u + 1)) {
      val v = g.nbrs(i)
      if (act(v)) wArr(v) -= g.ew(i)
      i += 1
    }
    act(u) = false; wArr(u) = 0.0; cnt -= 1
    if (cnt == 0) fVal = 0.0
  }
}

object EdgeMetricState {
  // The setup loops live here rather than in the constructor's field
  // initialisers: a constructor runs once per state, so its loops only reach
  // compiled code through on-stack replacement, while a method is compiled
  // whole and reused across states.

  /** Initial peeling weights over all of `g`: w_u = a_u + Σ_{v∈N(u)} c_uv. */
  def initialWeights(g: LocalGraph): Array[Double] = {
    val a = new Array[Double](g.n)
    var u = 0
    while (u < g.n) {
      var s = g.vw(u); var i = g.offsets(u)
      while (i < g.offsets(u + 1)) { s += g.ew(i); i += 1 }
      a(u) = s; u += 1
    }
    a
  }

  /** Initial f(V) = Σ a_u + Σ_{edges} c_uv. */
  def initialF(g: LocalGraph): Double = {
    var s = 0.0; var u = 0
    while (u < g.n) { s += g.vw(u); u += 1 }
    s + g.totalEdgeWeight
  }
}

/** Clique-count peeling state for TDS (k=3) / kCLiDS (k=4): w_u is the
  * number of active k-cliques containing u, f = Σ w_u / k. Removal
  * enumerates the cliques through u and decrements the other members;
  * `removeBatch` does this for a whole peeling round in parallel (counts
  * are integers, so atomic decrements keep results bit-deterministic
  * regardless of thread interleaving).
  */
final class CliqueMetricState(g: LocalGraph, cliqueK: Int, initThreads: Int = 1) extends MetricState {
  val n: Int = g.n
  private val act = Array.fill(n)(true)
  private var cnt = n
  private val c = new java.util.concurrent.atomic.AtomicIntegerArray(n)
  private var fVal = 0.0

  locally { // initial clique counts via canonical enumeration a<b<(c<d),
            // parallel over the first member a (atomic integer increments
            // keep the result bit-deterministic under any interleaving)
    val total = new java.util.concurrent.atomic.LongAdder
    repro.local.Par.parallelFor(n, initThreads, minPar = 16) { a =>
      var i = g.offsets(a)
      while (i < g.offsets(a + 1)) {
        val b = g.nbrs(i)
        if (a < b) {
          // common neighbors x > b of a and b (sorted-list intersection)
          var pa = g.offsets(a); var pb = g.offsets(b)
          val ea = g.offsets(a + 1); val eb = g.offsets(b + 1)
          val common = new scala.collection.mutable.ArrayBuffer[Int]()
          while (pa < ea && pb < eb) {
            val x = g.nbrs(pa); val y = g.nbrs(pb)
            if (x == y) { if (x > b) common += x; pa += 1; pb += 1 }
            else if (x < y) pa += 1
            else pb += 1
          }
          if (cliqueK == 3) {
            common.foreach { x =>
              c.incrementAndGet(a); c.incrementAndGet(b); c.incrementAndGet(x)
              total.increment()
            }
          } else {
            var ii = 0
            while (ii < common.length) {
              var jj = ii + 1
              while (jj < common.length) {
                if (g.hasEdge(common(ii), common(jj))) {
                  c.incrementAndGet(a); c.incrementAndGet(b)
                  c.incrementAndGet(common(ii)); c.incrementAndGet(common(jj))
                  total.increment()
                }
                jj += 1
              }
              ii += 1
            }
          }
        }
        i += 1
      }
    }
    fVal = total.sum.toDouble
  }

  def activeCount: Int = cnt
  def isActive(u: Int): Boolean = act(u)
  def f: Double = fVal
  def w(u: Int): Double = c.get(u).toDouble

  /** Active neighbors of u as an array (sorted, since adjacency is). */
  def activeNeighbors(u: Int): Array[Int] = activeNbrs(u)

  private def activeNbrs(u: Int): Array[Int] = {
    val buf = new scala.collection.mutable.ArrayBuffer[Int]()
    var i = g.offsets(u)
    while (i < g.offsets(u + 1)) { if (act(g.nbrs(i))) buf += g.nbrs(i); i += 1 }
    buf.toArray
  }

  def remove(u: Int): Unit = {
    require(act(u), s"remove($u): not active")
    val nb = activeNbrs(u)
    if (cliqueK == 3) {
      var i = 0
      while (i < nb.length) {
        var j = i + 1
        while (j < nb.length) {
          if (g.hasEdge(nb(i), nb(j))) { c.decrementAndGet(nb(i)); c.decrementAndGet(nb(j)) }
          j += 1
        }
        i += 1
      }
    } else {
      var i = 0
      while (i < nb.length) {
        var j = i + 1
        while (j < nb.length) {
          if (g.hasEdge(nb(i), nb(j))) {
            var l = j + 1
            while (l < nb.length) {
              if (g.hasEdge(nb(i), nb(l)) && g.hasEdge(nb(j), nb(l))) {
                c.decrementAndGet(nb(i)); c.decrementAndGet(nb(j)); c.decrementAndGet(nb(l))
              }
              l += 1
            }
          }
          j += 1
        }
        i += 1
      }
    }
    fVal -= c.get(u)
    act(u) = false; c.set(u, 0); cnt -= 1
    if (cnt == 0) fVal = 0.0
  }

  /** Parallel round removal: each batch vertex enumerates its cliques; a
    * clique containing several batch vertices is owned by the smallest so
    * it is counted (and its survivors decremented) exactly once.
    */
  override def removeBatch(us: Array[Int], threads: Int): Unit = {
    if (us.length <= 1) { us.foreach(remove); return }
    us.foreach(u => require(act(u), s"removeBatch($u): not active"))
    val inBatch = new Array[Boolean](n)
    us.foreach(inBatch(_) = true)
    val killed = new java.util.concurrent.atomic.LongAdder
    repro.local.Par.parallelFor(us.length, threads, minPar = 8) { idx =>
      val u = us(idx)
      val nb = activeNbrs(u)
      @inline def ownedHere(v: Int) = !inBatch(v) || v > u
      if (cliqueK == 3) {
        var i = 0
        while (i < nb.length) {
          val v = nb(i)
          if (ownedHere(v)) {
            var j = i + 1
            while (j < nb.length) {
              val x = nb(j)
              if (ownedHere(x) && g.hasEdge(v, x)) {
                killed.increment()
                if (!inBatch(v)) c.decrementAndGet(v)
                if (!inBatch(x)) c.decrementAndGet(x)
              }
              j += 1
            }
          }
          i += 1
        }
      } else {
        var i = 0
        while (i < nb.length) {
          val v = nb(i)
          if (ownedHere(v)) {
            var j = i + 1
            while (j < nb.length) {
              val x = nb(j)
              if (ownedHere(x) && g.hasEdge(v, x)) {
                var l = j + 1
                while (l < nb.length) {
                  val y = nb(l)
                  if (ownedHere(y) && g.hasEdge(v, y) && g.hasEdge(x, y)) {
                    killed.increment()
                    if (!inBatch(v)) c.decrementAndGet(v)
                    if (!inBatch(x)) c.decrementAndGet(x)
                    if (!inBatch(y)) c.decrementAndGet(y)
                  }
                  l += 1
                }
              }
              j += 1
            }
          }
          i += 1
        }
      }
    }
    us.foreach { u => act(u) = false; c.set(u, 0); cnt -= 1 }
    fVal -= killed.sum.toDouble
    if (cnt == 0) fVal = 0.0
  }
}
