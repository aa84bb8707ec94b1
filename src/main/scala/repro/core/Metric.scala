package repro.core

import repro.local.{LocalGraph, Par}

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
  /** Effective-weight rewrite of the raw graph. Its per-entry pass runs on
    * `threads` threads; the weights are bit-identical at every count.
    */
  def prepare(g: LocalGraph, threads: Int = Par.defaultThreads): LocalGraph
  /** Incremental peeling state over the *prepared* graph. `threads` funds
    * the setup passes (the edge metrics' `prepare` and initial weights, the
    * clique metrics' initial counting pass) — parallel for the parallel
    * systems (Dupin, PBBS, kCLIST's listing), 1 for sequential ones.
    */
  def localState(g: LocalGraph, threads: Int = 1): MetricState =
    if (edgeBased) new EdgeMetricState(prepare(g, threads), threads)
    else new CliqueMetricState(g, k, threads)
}

object Metric {
  /** Fraudar's `c` in `c_ij = 1/log(x + c)` (Listing 1 uses 5). */
  val FraudarC = 5.0

  val edgeMetrics: Seq[Metric] = Seq(DG, DW, FD)
  val cliqueMetrics: Seq[Metric] = Seq(TDS, KCliDS(4))
  /** The five metrics of §2.1, in the paper's order. */
  val all: Seq[Metric] = edgeMetrics ++ cliqueMetrics
}

/** DG [Charikar'00]: f(S) = |E[S]| — every edge weighs 1, vertices 0. */
case object DG extends Metric {
  val name = "DG"; val k = 2; val edgeBased = true
  def prepare(g: LocalGraph, threads: Int): LocalGraph = {
    val ones = new Array[Double](g.nbrs.length)
    g.forRowChunks(threads)((lo, hi) => java.util.Arrays.fill(ones, g.offsets(lo), g.offsets(hi), 1.0))
    new LocalGraph(g.n, g.offsets, g.nbrs, ones, new Array[Double](g.n))
  }
}

/** DW [Gudapati et al.]: f(S) = Σ c_ij — raw edge weights, vertices 0. */
case object DW extends Metric {
  val name = "DW"; val k = 2; val edgeBased = true
  def prepare(g: LocalGraph, threads: Int): LocalGraph =
    new LocalGraph(g.n, g.offsets, g.nbrs, g.ew, new Array[Double](g.n))
}

/** FD (Fraudar [Hooi et al.]): f(S) = Σ a_i + Σ 1/log(x+c) where x is the
  * degree of the "object" endpoint. On general graphs we take the
  * higher-degree endpoint as the object (in customer→merchant bipartite
  * graphs that is the merchant, matching the paper's deployment).
  */
case object FD extends Metric {
  val name = "FD"; val k = 2; val edgeBased = true
  /** `1/log(deg + c)`, the weight of an edge whose object endpoint has
    * degree `deg`. It falls as `deg` grows, so the weight at the
    * higher-degree endpoint is the smaller of the two endpoints' terms.
    */
  def term(deg: Int): Double = 1.0 / math.log(deg + Metric.FraudarC)

  /** n logs instead of one per CSR entry, bit for bit the same weights. */
  def prepare(g: LocalGraph, threads: Int): LocalGraph = {
    val t = Array.tabulate(g.n)(u => term(g.degree(u)))
    val ew = new Array[Double](g.nbrs.length)
    g.forRowChunks(threads) { (lo, hi) =>
      var u = lo
      while (u < hi) {
        val tu = t(u); var i = g.offsets(u); val end = g.offsets(u + 1)
        while (i < end) { ew(i) = math.min(tu, t(g.nbrs(i))); i += 1 }
        u += 1
      }
    }
    new LocalGraph(g.n, g.offsets, g.nbrs, ew, g.vw)
  }
}

/** TDS [Tsourakakis'15]: f(S) = t(S), the triangle count of G[S]. */
case object TDS extends Metric {
  val name = "TDS"; val k = 3; val edgeBased = false
  def prepare(g: LocalGraph, threads: Int): LocalGraph = g
}

/** kCLiDS [Danisch et al.]: f(S) = number of k-cliques of G[S]. */
final case class KCliDS(cliqueK: Int) extends Metric {
  require(cliqueK == 3 || cliqueK == 4, "kCLiDS supported for k in {3,4}")
  val name = s"kCLiDS-$cliqueK"; val k = cliqueK; val edgeBased = false
  def prepare(g: LocalGraph, threads: Int): LocalGraph = g
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
    * both states override it with a parallel implementation (clique counts
    * always, edge sums for large batches) — the parallelism the paper's
    * engine gets from OpenMP's `updateNgh`.
    */
  def removeBatch(us: Array[Int], threads: Int): Unit = us.foreach(remove)
}

/** Edge-sum peeling state for DG/DW/FD: w_u = a_u + Σ_{v∈S∩N(u)} c_uv.
  *
  * `removeBatch` pushes a small batch: each member, in batch order, is
  * removed as by `remove`. A large ascending batch is pulled instead, in
  * parallel over the active vertices: each walks its sorted adjacency and
  * subtracts its in-batch neighbours' weights in id order, which is batch
  * order; a batch member subtracts only the members before it, which
  * leaves the weight `r_j` it has when `remove` reaches it. Then f drops
  * by each `r_j` in batch order. Both paths make the same floating-point
  * operations in the same order, so every w and f is bit-identical; this
  * needs each edge to weigh the same from both ends, as every CSR that
  * [[LocalGraph.fromEdges]] builds and every metric's `prepare` keeps.
  * The initial weights are summed on `threads` threads, each vertex's own
  * sum in adjacency order, so they too are the same at every count.
  */
final class EdgeMetricState(g: LocalGraph, threads: Int = Par.defaultThreads) extends MetricState {
  val n: Int = g.n
  private val act = new Array[Boolean](n)
  java.util.Arrays.fill(act, true)
  private var cnt = n
  /** Σ deg(u) over the active u: the entries a pull walks. */
  private var actDeg = g.nbrs.length.toLong
  /** 1.0 for the members of the batch being pulled, else 0.0. */
  private val inBatch = new Array[Double](n)
  private val wArr = EdgeMetricState.initialWeights(g, threads)
  private var fVal = EdgeMetricState.initialF(g)

  def activeCount: Int = cnt
  def isActive(u: Int): Boolean = act(u)
  def f: Double = fVal
  def w(u: Int): Double = wArr(u)

  def activeNeighbors(u: Int): Array[Int] = g.neighborsIn(u, act)

  def remove(u: Int): Unit = {
    require(act(u), s"remove($u): not active")
    fVal -= wArr(u)
    var i = g.offsets(u)
    while (i < g.offsets(u + 1)) {
      val v = g.nbrs(i)
      if (act(v)) wArr(v) -= g.ew(i)
      i += 1
    }
    act(u) = false; wArr(u) = 0.0; cnt -= 1; actDeg -= g.degree(u)
    if (cnt == 0) fVal = 0.0
  }

  /** Pulls when that is the cheaper path: a pull reads the n activity
    * flags and walks the `actDeg` entries of the active vertices, shared by
    * up to 4 threads, and a push walks the batch's own entries on one.
    */
  override def removeBatch(us: Array[Int], threads: Int): Unit = {
    var batchDeg = 0L
    var ascending = true
    var j = 0
    while (j < us.length) {
      batchDeg += g.degree(us(j))
      if (j > 0 && us(j) <= us(j - 1)) ascending = false
      j += 1
    }
    if (ascending && batchDeg * math.min(threads, 4) >= actDeg + n) pull(us, threads)
    else us.foreach(remove)
  }

  /** The pull path of `removeBatch`, for an ascending batch `us`, over
    * [[LocalGraph.forRowChunks]]. A neighbour outside the batch subtracts
    * `c_uv * 0.0`, which leaves w as it is (weights are finite and
    * non-negative) and saves a branch per entry.
    */
  private def pull(us: Array[Int], threads: Int): Unit = {
    us.foreach { u => require(act(u), s"remove($u): not active"); inBatch(u) = 1.0 }
    g.forRowChunks(threads) { (lo, hi) =>
      var v = lo
      while (v < hi) {
        if (act(v)) {
          var s = wArr(v)
          var i = g.offsets(v)
          val e = g.offsets(v + 1)
          if (inBatch(v) != 0.0) while (i < e && g.nbrs(i) < v) { s -= g.ew(i) * inBatch(g.nbrs(i)); i += 1 }
          else while (i < e) { s -= g.ew(i) * inBatch(g.nbrs(i)); i += 1 }
          wArr(v) = s
        }
        v += 1
      }
    }
    us.foreach { u =>
      fVal -= wArr(u)
      inBatch(u) = 0.0; act(u) = false; wArr(u) = 0.0; actDeg -= g.degree(u)
    }
    cnt -= us.length
    if (cnt == 0) fVal = 0.0
  }
}

object EdgeMetricState {
  // The setup loops live here rather than in the constructor's field
  // initialisers: a constructor runs once per state, so its loops only reach
  // compiled code through on-stack replacement, while a method is compiled
  // whole and reused across states.

  /** Initial peeling weights over all of `g`: w_u = a_u + Σ_{v∈N(u)} c_uv. */
  def initialWeights(g: LocalGraph, threads: Int): Array[Double] = {
    val a = new Array[Double](g.n)
    g.forRowChunks(threads) { (lo, hi) =>
      var u = lo
      while (u < hi) {
        var s = g.vw(u); var i = g.offsets(u); val end = g.offsets(u + 1)
        while (i < end) { s += g.ew(i); i += 1 }
        a(u) = s; u += 1
      }
    }
    a
  }

  /** Initial f(V) = Σ a_u + Σ_{edges} c_uv, summed sequentially: its
    * summation order is the result.
    */
  def initialF(g: LocalGraph): Double = {
    var s = 0.0; var u = 0
    while (u < g.n) { s += g.vw(u); u += 1 }
    s + g.totalEdgeWeight
  }
}

/** Clique-count peeling state for TDS (k=3) / kCLiDS (k=4): w_u is the
  * number of active k-cliques containing u, f = Σ w_u / k. `removeBatch`
  * is the one removal walk: it enumerates the cliques through the batch and
  * decrements their surviving members, in parallel over the batch (counts
  * are integers, so atomic decrements keep results bit-deterministic
  * regardless of thread interleaving); `remove` is a batch of one.
  */
final class CliqueMetricState(g: LocalGraph, cliqueK: Int, initThreads: Int = 1) extends MetricState {
  val n: Int = g.n
  private val act = Array.fill(n)(true)
  /** Members of the batch being removed; cleared after each batch. */
  private val inBatch = new Array[Boolean](n)
  private var cnt = n
  private val c = new java.util.concurrent.atomic.AtomicIntegerArray(n)
  private var fVal = CliqueMetricState.initialCounts(g, cliqueK, initThreads, c).toDouble

  def activeCount: Int = cnt
  def isActive(u: Int): Boolean = act(u)
  def f: Double = fVal
  def w(u: Int): Double = c.get(u).toDouble

  /** Active neighbors of u as an array (sorted, since adjacency is). */
  def activeNeighbors(u: Int): Array[Int] = g.neighborsIn(u, act)

  /** A batch of one. */
  def remove(u: Int): Unit = removeBatch(Array(u), 1)

  /** Removes a peeling round in parallel. Each batch vertex u walks the
    * cliques through it: the pairs (v, x) of its active neighbours joined
    * by an edge close a triangle; for k=4 a third neighbour y joined to
    * both closes the 4-clique. A clique holding several batch vertices is
    * owned by the smallest, so it is counted (and its survivors
    * decremented) exactly once.
    */
  override def removeBatch(us: Array[Int], threads: Int): Unit = {
    us.foreach(u => require(act(u), s"remove($u): not active"))
    us.foreach(inBatch(_) = true)
    val killed = new java.util.concurrent.atomic.LongAdder
    repro.local.Par.parallelFor(us.length, threads, minPar = 8) { idx =>
      val u = us(idx)
      val nb = activeNeighbors(u)
      @inline def ownedHere(v: Int) = !inBatch(v) || v > u
      @inline def drop(v: Int): Unit = if (!inBatch(v)) c.decrementAndGet(v)
      var owned = 0L
      var i = 0
      while (i < nb.length) {
        val v = nb(i)
        if (ownedHere(v)) {
          var j = i + 1
          while (j < nb.length) {
            val x = nb(j)
            if (ownedHere(x) && g.hasEdge(v, x)) {
              if (cliqueK == 3) { owned += 1; drop(v); drop(x) }
              else {
                var l = j + 1
                while (l < nb.length) {
                  val y = nb(l)
                  if (ownedHere(y) && g.hasEdge(v, y) && g.hasEdge(x, y)) {
                    owned += 1; drop(v); drop(x); drop(y)
                  }
                  l += 1
                }
              }
            }
            j += 1
          }
        }
        i += 1
      }
      killed.add(owned)
    }
    us.foreach { u => inBatch(u) = false; act(u) = false; c.set(u, 0); cnt -= 1 }
    fVal -= killed.sum.toDouble
    if (cnt == 0) fVal = 0.0
  }
}

object CliqueMetricState {
  /** Adds to `c` every vertex's k-clique count in `g` and returns the
    * number of k-cliques. Canonical enumeration a<b<(c<d), parallel over the
    * first member a: atomic integer increments keep the result
    * bit-deterministic under any interleaving. (A method rather than a
    * constructor loop, as in [[EdgeMetricState]].)
    */
  def initialCounts(g: LocalGraph, cliqueK: Int, threads: Int,
                    c: java.util.concurrent.atomic.AtomicIntegerArray): Long = {
    val total = new java.util.concurrent.atomic.LongAdder
    repro.local.Par.parallelFor(g.n, threads, minPar = 16) { a =>
      // common neighbours x > b of a and b, a subset of N(a)
      val common = new Array[Int](g.degree(a))
      var i = g.offsets(a)
      while (i < g.offsets(a + 1)) {
        val b = g.nbrs(i)
        if (a < b) {
          // sorted-list intersection
          var len = 0
          var pa = g.offsets(a); var pb = g.offsets(b)
          val ea = g.offsets(a + 1); val eb = g.offsets(b + 1)
          while (pa < ea && pb < eb) {
            val x = g.nbrs(pa); val y = g.nbrs(pb)
            if (x == y) { if (x > b) { common(len) = x; len += 1 }; pa += 1; pb += 1 }
            else if (x < y) pa += 1
            else pb += 1
          }
          var ii = 0
          while (ii < len) {
            if (cliqueK == 3) {
              c.incrementAndGet(a); c.incrementAndGet(b); c.incrementAndGet(common(ii))
              total.increment()
            } else {
              var jj = ii + 1
              while (jj < len) {
                if (g.hasEdge(common(ii), common(jj))) {
                  c.incrementAndGet(a); c.incrementAndGet(b)
                  c.incrementAndGet(common(ii)); c.incrementAndGet(common(jj))
                  total.increment()
                }
                jj += 1
              }
            }
            ii += 1
          }
        }
        i += 1
      }
    }
    total.sum
  }
}
