package repro.local

/** Immutable CSR (compressed sparse row) undirected graph.
  *
  * This is the shared-memory substrate every *timed* algorithm runs on
  * (paper's testbed is C++/OpenMP; see DESIGN.md §2). Vertices are dense
  * ints `[0, n)`. Each undirected edge {u,v} is stored twice (u→v and v→u)
  * with an aligned per-direction weight. Adjacency lists are sorted by
  * neighbor id so membership tests are binary searches (needed by the
  * clique metrics). Built from edge triples by [[LocalGraph.fromEdges]].
  *
  * @param n       number of vertices
  * @param offsets CSR row offsets, size n+1
  * @param nbrs    concatenated sorted adjacency lists, size 2|E|
  * @param ew      weight of the edge to `nbrs(i)`, aligned with `nbrs`
  * @param vw      vertex weights (suspiciousness `a_i`), size n
  */
final class LocalGraph(
    val n: Int,
    val offsets: Array[Int],
    val nbrs: Array[Int],
    val ew: Array[Double],
    val vw: Array[Double]) {

  /** Number of undirected edges. */
  val m: Long = nbrs.length / 2L

  def degree(u: Int): Int = offsets(u + 1) - offsets(u)

  /** True iff {u,v} is an edge (binary search over sorted adjacency). */
  def hasEdge(u: Int, v: Int): Boolean = {
    var lo = offsets(u); var hi = offsets(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val x = nbrs(mid)
      if (x == v) return true
      else if (x < v) lo = mid + 1
      else hi = mid - 1
    }
    false
  }

  /** Sum of all edge weights (each undirected edge counted once). */
  def totalEdgeWeight: Double = {
    var s = 0.0; var i = 0
    while (i < ew.length) { s += ew(i); i += 1 }
    s / 2.0
  }

  /** A copy of this graph with every edge weight replaced by `f(u, v, w)`. */
  def mapEdgeWeights(f: (Int, Int, Double) => Double): LocalGraph = {
    val ew2 = new Array[Double](ew.length)
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) { ew2(i) = f(u, nbrs(i), ew(i)); i += 1 }
      u += 1
    }
    new LocalGraph(n, offsets, nbrs, ew2, vw)
  }

  /** A copy with vertex weights replaced by `f(u)`. */
  def mapVertexWeights(f: Int => Double): LocalGraph =
    new LocalGraph(n, offsets, nbrs, ew, Array.tabulate(n)(f))

  /** Canonical (src < dst) edge triples, e.g. for feeding Spark/DuckDB. */
  def canonicalEdges: Array[(Int, Int, Double)] = {
    val out = Array.newBuilder[(Int, Int, Double)]
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        if (u < nbrs(i)) out += ((u, nbrs(i), ew(i)))
        i += 1
      }
      u += 1
    }
    out.result()
  }
}

object LocalGraph {

  /** Build from undirected edge triples (src, dst, weight), given in any
    * orientation and order.
    *
    * Duplicate {u,v} pairs are coalesced by summing their weights in input
    * order (multi-edges in transaction data add suspiciousness, matching the
    * paper's DW usage). Self-loops are dropped. An endpoint outside `[0, n)`
    * or a NaN/infinite edge or vertex weight is rejected with an
    * `IllegalArgumentException` naming the edge or vertex.
    *
    * The build touches primitive arrays only. One pass over the triples
    * canonicalises each edge to `u < v`; a counting sort groups the edges
    * into rows by `u`; each row is sorted as packed `(v << 32) | inputIndex`
    * longs, which puts equal `v`s next to each other in input order, where
    * they are summed. Each distinct edge is then scattered into both
    * endpoints' rows. The distinct edges arrive in ascending `(u, v)` order,
    * so every adjacency list comes out sorted.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)],
                vertexWeights: Array[Double] = null): LocalGraph = {
    // One pass: canonical endpoints, weights, and per-u counts.
    val len = edges.size
    val eu = new Array[Int](len); val ev = new Array[Int](len); val ewIn = new Array[Double](len)
    val rowStart = new Array[Int](n + 1)
    var m = 0
    val it = edges.iterator
    while (it.hasNext) {
      val (a, b, w) = it.next()
      require(java.lang.Double.isFinite(w), s"edge ($a,$b) has non-finite weight $w")
      if (a != b) {
        val u = math.min(a, b); val v = math.max(a, b)
        require(u >= 0 && v < n, s"edge ($a,$b) out of range [0,$n)")
        eu(m) = u; ev(m) = v; ewIn(m) = w
        rowStart(u + 1) += 1; m += 1
      }
    }
    var u = 0
    while (u < n) { rowStart(u + 1) += rowStart(u); u += 1 }
    // Counting sort by u; a key is (v << 32) | input index.
    val keys = new Array[Long](m)
    val next = java.util.Arrays.copyOf(rowStart, n)
    var i = 0
    while (i < m) {
      keys(next(eu(i))) = (ev(i).toLong << 32) | i
      next(eu(i)) += 1; i += 1
    }
    // Sort each row by (v, input index) and sum each run of equal v's into
    // one distinct edge (cu, cv, cw); these come out in ascending (u, v).
    val cu = new Array[Int](m); val cv = new Array[Int](m); val cw = new Array[Double](m)
    val deg = new Array[Int](n)
    var k = 0
    u = 0
    while (u < n) {
      val end = rowStart(u + 1)
      java.util.Arrays.sort(keys, rowStart(u), end)
      i = rowStart(u)
      while (i < end) {
        val v = (keys(i) >>> 32).toInt
        var w = ewIn(keys(i).toInt); i += 1
        while (i < end && (keys(i) >>> 32).toInt == v) { w += ewIn(keys(i).toInt); i += 1 }
        cu(k) = u; cv(k) = v; cw(k) = w; k += 1
        deg(u) += 1; deg(v) += 1
      }
      u += 1
    }
    val offsets = new Array[Int](n + 1)
    u = 0
    while (u < n) { offsets(u + 1) = offsets(u) + deg(u); u += 1 }
    val pos  = offsets.clone()
    val nbrs = new Array[Int](offsets(n))
    val ew   = new Array[Double](offsets(n))
    i = 0
    while (i < k) {
      val a = cu(i); val b = cv(i)
      nbrs(pos(a)) = b; ew(pos(a)) = cw(i); pos(a) += 1
      nbrs(pos(b)) = a; ew(pos(b)) = cw(i); pos(b) += 1
      i += 1
    }
    val vwArr = if (vertexWeights != null) vertexWeights else new Array[Double](n)
    require(vwArr.length == n, "vertexWeights length must equal n")
    u = 0
    while (u < n) {
      require(java.lang.Double.isFinite(vwArr(u)), s"vertex $u has non-finite weight ${vwArr(u)}")
      u += 1
    }
    new LocalGraph(n, offsets, nbrs, ew, vwArr)
  }
}
