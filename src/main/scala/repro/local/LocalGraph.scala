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

  /** The first vertex whose adjacency list starts at CSR entry `e` or
    * later (`n` if none does).
    */
  def rowAt(e: Int): Int = {
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (offsets(mid) < e) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** The neighbours `v` of `u` with `keep(v)`, ascending. */
  def neighborsIn(u: Int, keep: Array[Boolean]): Array[Int] = {
    val out = new Array[Int](degree(u))
    var k = 0; var i = offsets(u)
    while (i < offsets(u + 1)) { val v = nbrs(i); if (keep(v)) { out(k) = v; k += 1 }; i += 1 }
    if (k == out.length) out else java.util.Arrays.copyOf(out, k)
  }

  /** Sum of all edge weights (each undirected edge counted once). */
  def totalEdgeWeight: Double = {
    var s = 0.0; var i = 0
    while (i < ew.length) { s += ew(i); i += 1 }
    s / 2.0
  }

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

  /** Fewest triples (or rows' edges) a chunk of a parallel build pass takes. */
  private val MinChunk = 1024

  /** Build from undirected edge triples (src, dst, weight), given in any
    * orientation and order.
    *
    * Duplicate {u,v} pairs are coalesced by summing their weights in input
    * order (multi-edges in transaction data add suspiciousness, matching the
    * paper's DW usage). Self-loops are dropped. An endpoint outside `[0, n)`
    * (self-loops included) or a negative, NaN or infinite edge or vertex
    * weight (Property 3.1) is rejected with an `IllegalArgumentException`
    * naming the first such edge in input order, or the first such vertex.
    *
    * The build sorts without comparisons, in parallel on `threads` threads
    * of [[Par]]'s pool; the result is bit-identical at every thread count.
    * Input that is not an `IndexedSeq` is copied into one first.
    *  1. Chunks of the triples are read in parallel into primitive arrays,
    *     canonicalised to `u < v` and checked, with a histogram of `v` per
    *     chunk.
    *  1. A stable counting-sort scatter orders the edges by `v`; a second
    *     one, reading that order, orders them by `u`. Edges are then sorted
    *     by `(u, v)`, and duplicates of one `(u, v)` stay in input order.
    *  1. Rows (one per `u`) are coalesced in parallel, summing each run of
    *     equal `v`s in place. Each chunk of rows counts, per vertex `v`, the
    *     `v`'s lower neighbours it holds.
    *  1. Those counts give each vertex's offsets and, for every row chunk, a
    *     private slot range in each `v`'s list of lower neighbours. A
    *     parallel scatter writes both directions of every edge: each list is
    *     its lower neighbours in ascending row order, then its own row, so
    *     every adjacency list comes out sorted.
    *
    * Each pass takes at most one chunk per thread and at most `1 + len/n`
    * chunks, so its per-chunk tables of `n` counts stay `O(n + len)` in total.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)],
                vertexWeights: Array[Double] = null,
                threads: Int = Par.defaultThreads): LocalGraph = {
    val in: collection.IndexedSeq[(Int, Int, Double)] = edges match {
      case s: collection.IndexedSeq[(Int, Int, Double)] @unchecked => s
      case _ => edges.toIndexedSeq
    }
    val len = in.length
    // Read, check and canonicalise the triples (a self-loop keeps u == v),
    // and count each chunk's edges per v.
    val au = new Array[Int](len); val av = new Array[Int](len); val aw = new Array[Double](len)
    val inChunks = chunkCount(len, n, threads)
    val byV = new Array[Array[Int]](inChunks)
    val firstBad = Array.fill(inChunks)(-1)
    Par.parallelForChunks(inChunks, threads) { c =>
      val h = new Array[Int](n)
      var i = Par.chunkStart(len, c, inChunks); val hi = Par.chunkStart(len, c + 1, inChunks)
      while (i < hi) {
        val (a, b, w) = in(i)
        if (edgeProblem(a, b, w, n) != null) { firstBad(c) = i; i = hi }
        else {
          val u = math.min(a, b); val v = math.max(a, b)
          au(i) = u; av(i) = v; aw(i) = w
          if (u != v) h(v) += 1
          i += 1
        }
      }
      byV(c) = h
    }
    val bad = firstBad.find(_ >= 0).getOrElse(-1)
    require(bad < 0, { val (a, b, w) = in(bad); edgeProblem(a, b, w, n) })
    // Stable scatter by v (in input order within each v).
    val m = blockStarts(byV, n, null)(n)
    val bu = new Array[Int](m); val bv = new Array[Int](m); val bw = new Array[Double](m)
    Par.parallelForChunks(inChunks, threads) { c =>
      val next = byV(c)
      var i = Par.chunkStart(len, c, inChunks); val hi = Par.chunkStart(len, c + 1, inChunks)
      while (i < hi) {
        val v = av(i)
        if (au(i) != v) {
          val p = next(v); next(v) = p + 1
          bu(p) = au(i); bv(p) = v; bw(p) = aw(i)
        }
        i += 1
      }
    }
    // Stable scatter by u, from the v order, back into av/aw: rows sorted
    // by v, duplicates in input order.
    val edgeChunks = chunkCount(m, n, threads)
    val byU = new Array[Array[Int]](edgeChunks)
    Par.parallelForChunks(edgeChunks, threads) { c =>
      val h = new Array[Int](n)
      var i = Par.chunkStart(m, c, edgeChunks); val hi = Par.chunkStart(m, c + 1, edgeChunks)
      while (i < hi) { h(bu(i)) += 1; i += 1 }
      byU(c) = h
    }
    val rowStart = blockStarts(byU, n, null)
    Par.parallelForChunks(edgeChunks, threads) { c =>
      val next = byU(c)
      var i = Par.chunkStart(m, c, edgeChunks); val hi = Par.chunkStart(m, c + 1, edgeChunks)
      while (i < hi) {
        val p = next(bu(i)); next(bu(i)) = p + 1
        av(p) = bv(i); aw(p) = bw(i)
        i += 1
      }
    }
    // Coalesce each row in place into its `distinct` first slots; row chunks
    // hold about equal numbers of edges and count their edges per v.
    val rowChunks = edgeChunks
    val rowBound = Array.tabulate(rowChunks + 1) { r =>
      if (r == rowChunks) n else firstRowFrom(rowStart, n, Par.chunkStart(m, r, rowChunks))
    }
    val distinct = new Array[Int](n)
    val lowerOf = new Array[Array[Int]](rowChunks)
    Par.parallelForChunks(rowChunks, threads) { r =>
      val h = new Array[Int](n)
      var u = rowBound(r)
      while (u < rowBound(r + 1)) {
        var i = rowStart(u); var k = i; val end = rowStart(u + 1)
        while (i < end) {
          val v = av(i); var w = aw(i); i += 1
          while (i < end && av(i) == v) { w += aw(i); i += 1 }
          av(k) = v; aw(k) = w; k += 1
          h(v) += 1
        }
        distinct(u) = k - rowStart(u)
        u += 1
      }
      lowerOf(r) = h
    }
    // Vertex x's list: one block of lower neighbours per row chunk, then its
    // own row's `distinct(x)` upper neighbours.
    val offsets = blockStarts(lowerOf, n, distinct)
    val nbrs = new Array[Int](offsets(n))
    val ew   = new Array[Double](offsets(n))
    Par.parallelForChunks(rowChunks, threads) { r =>
      val lower = lowerOf(r)
      var u = rowBound(r)
      while (u < rowBound(r + 1)) {
        var i = rowStart(u); val end = i + distinct(u)
        var p = offsets(u + 1) - distinct(u)
        while (i < end) {
          val v = av(i); val w = aw(i)
          nbrs(p) = v; ew(p) = w; p += 1
          val q = lower(v); lower(v) = q + 1
          nbrs(q) = u; ew(q) = w
          i += 1
        }
        u += 1
      }
    }
    val vwArr = if (vertexWeights != null) vertexWeights else new Array[Double](n)
    require(vwArr.length == n, "vertexWeights length must equal n")
    var u = 0
    while (u < n) {
      require(vwArr(u) >= 0 && vwArr(u) < Double.PositiveInfinity,
        s"vertex $u has weight ${vwArr(u)}; Property 3.1 needs it finite and non-negative")
      u += 1
    }
    new LocalGraph(n, offsets, nbrs, ew, vwArr)
  }

  /** Why the triple (a, b, w) cannot be an edge of an n-vertex graph, or
    * null if it can.
    */
  private def edgeProblem(a: Int, b: Int, w: Double, n: Int): String =
    if (!java.lang.Double.isFinite(w)) s"edge ($a,$b) has non-finite weight $w"
    else if (w < 0) s"edge ($a,$b) has negative weight $w; Property 3.1 needs it non-negative"
    else if (math.min(a, b) < 0 || math.max(a, b) >= n) s"edge ($a,$b) out of range [0,$n)"
    else null

  /** Chunks for a parallel pass over `len` items with a table of `n` counts
    * per chunk: at most one per thread, at least [[MinChunk]] items each,
    * and at most `1 + len/n`, so the tables hold `O(n + len)` counts.
    */
  private def chunkCount(len: Int, n: Int, threads: Int): Int =
    math.max(1, math.min(threads, math.min(len / MinChunk, 1 + len / math.max(n, 1))))

  /** Lays out, for each key `k` in order, one block per chunk `c` of
    * `counts(c)(k)` slots, then `extra(k)` more (none if `extra` is null).
    * Rewrites `counts(c)(k)` in place to the start of its block and returns
    * the start of each key's first block, plus the total, as `keys + 1`
    * entries.
    */
  private def blockStarts(counts: Array[Array[Int]], keys: Int, extra: Array[Int]): Array[Int] = {
    val starts = new Array[Int](keys + 1)
    var s = 0; var k = 0
    while (k < keys) {
      starts(k) = s
      var c = 0
      while (c < counts.length) { val x = counts(c)(k); counts(c)(k) = s; s += x; c += 1 }
      if (extra != null) s += extra(k)
      k += 1
    }
    starts(keys) = s
    starts
  }

  /** The first row `u` in `[0, n]` whose edges start at or after `pos`. */
  private def firstRowFrom(rowStart: Array[Int], n: Int, pos: Int): Int = {
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (rowStart(mid) < pos) lo = mid + 1 else hi = mid
    }
    lo
  }
}
