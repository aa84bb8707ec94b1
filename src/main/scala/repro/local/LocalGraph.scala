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

  /** Runs `body(lo, hi)` once for each row range `[lo, hi)` of a cut of
    * `0 until n` into chunks of about equal numbers of CSR entries (hubs
    * cluster, so equal row counts would not balance), on `threads` threads
    * of [[Par]]'s pool. With fewer than [[Par.MinPar]] entries, or one
    * thread, it is one call `body(0, n)` on the calling thread.
    */
  def forRowChunks(threads: Int)(body: (Int, Int) => Unit): Unit = {
    val entries = nbrs.length
    val chunks = if (threads <= 1 || entries < Par.MinPar) 1 else threads * 4
    def rowAt(e: Int) = LocalGraph.firstRowFrom(offsets, n, e)
    Par.parallelForChunks(chunks, threads) { c =>
      body(rowAt(Par.chunkStart(entries, c, chunks)),
           if (c == chunks - 1) n else rowAt(Par.chunkStart(entries, c + 1, chunks)))
    }
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
    *  1. Two stable counting-sort scatters each move one `Long` key per
    *     edge. The first orders the edges by `v` as `(u << 32) | i`, `i`
    *     the input index; the second, reading that order, orders them by
    *     `u` as `(v << 32) | i`, with `v` taken from the `v`-bucket bounds
    *     it walks. Edges are then sorted by `(u, v)`, and duplicates of one
    *     `(u, v)` stay in input order. Weights stay in input order until
    *     the last pass. Ids are below `n` and input indices are `Int`s, so
    *     each half fits 32 bits and unpacks with `>>> 32` and `.toInt`.
    *  1. Rows (one per `u`) are walked in parallel, counting each row's
    *     distinct `v`s. Each chunk of rows counts, per vertex `v`, the `v`'s
    *     lower neighbours it holds.
    *  1. Those counts give each vertex's offsets and, for every row chunk, a
    *     private slot range in each `v`'s list of lower neighbours. A
    *     parallel scatter sums each run of equal `v` from the input-order
    *     weights, in input order, and writes both directions of the edge:
    *     each list is its lower neighbours in ascending row order, then its
    *     own row, so every adjacency list comes out sorted.
    *
    * Transient arrays take 16 bytes per triple (`u`, `v`, weight) and 16
    * per edge (the two key arrays). Each pass takes at most one chunk per
    * thread and at most `1 + len/n` chunks, so its per-chunk tables of `n`
    * counts stay `O(n + len)` in total.
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
        // Field reads, not `val (a, b, w) =`: that pattern builds a fresh
        // tuple of boxed fields per triple (31 MB per 591K-triple build).
        val t = in(i); val a = t._1; val b = t._2; val w = t._3
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
    // Stable scatter by v (in input order within each v) of one key per
    // edge, (u << 32) | input index; au and av are dead after it.
    val vStart = blockStarts(byV, n, null)
    val m = vStart(n)
    val byVKey = new Array[Long](m)
    Par.parallelForChunks(inChunks, threads) { c =>
      val next = byV(c)
      var i = Par.chunkStart(len, c, inChunks); val hi = Par.chunkStart(len, c + 1, inChunks)
      while (i < hi) {
        val u = au(i); val v = av(i)
        if (u != v) {
          val p = next(v); next(v) = p + 1
          byVKey(p) = (u.toLong << 32) | i
        }
        i += 1
      }
    }
    // Stable scatter by u, from the v order, of (v << 32) | input index, with
    // v read off the v-bucket bounds: rows sorted by v, duplicates in input
    // order.
    val edgeChunks = chunkCount(m, n, threads)
    val byU = new Array[Array[Int]](edgeChunks)
    Par.parallelForChunks(edgeChunks, threads) { c =>
      val h = new Array[Int](n)
      var p = Par.chunkStart(m, c, edgeChunks); val hi = Par.chunkStart(m, c + 1, edgeChunks)
      while (p < hi) { h((byVKey(p) >>> 32).toInt) += 1; p += 1 }
      byU(c) = h
    }
    val rowStart = blockStarts(byU, n, null)
    val key = new Array[Long](m)
    Par.parallelForChunks(edgeChunks, threads) { c =>
      val next = byU(c)
      var p = Par.chunkStart(m, c, edgeChunks); val hi = Par.chunkStart(m, c + 1, edgeChunks)
      var v = firstRowFrom(vStart, n, p + 1) - 1 // the v whose bucket holds p
      while (p < hi) {
        val vEnd = math.min(hi, vStart(v + 1)); val vBits = v.toLong << 32
        while (p < vEnd) {
          val k = byVKey(p); val u = (k >>> 32).toInt
          val q = next(u); next(u) = q + 1
          key(q) = vBits | (k & 0xffffffffL)
          p += 1
        }
        v += 1
      }
    }
    // Count each row's distinct v; row chunks hold about equal numbers of
    // edges and count their edges per v.
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
        var i = rowStart(u); val end = rowStart(u + 1); var d = 0
        while (i < end) {
          val vBits = key(i) >>> 32; i += 1
          while (i < end && (key(i) >>> 32) == vBits) i += 1
          h(vBits.toInt) += 1; d += 1
        }
        distinct(u) = d
        u += 1
      }
      lowerOf(r) = h
    }
    // Vertex x's list: one block of lower neighbours per row chunk, then its
    // own row's `distinct(x)` upper neighbours. Each run of equal v sums its
    // weights from aw in input order.
    val offsets = blockStarts(lowerOf, n, distinct)
    val nbrs = new Array[Int](offsets(n))
    val ew   = new Array[Double](offsets(n))
    Par.parallelForChunks(rowChunks, threads) { r =>
      val lower = lowerOf(r)
      var u = rowBound(r)
      while (u < rowBound(r + 1)) {
        var i = rowStart(u); val end = rowStart(u + 1)
        var p = offsets(u + 1) - distinct(u)
        while (i < end) {
          val vBits = key(i) >>> 32; var w = aw(key(i).toInt); i += 1
          while (i < end && (key(i) >>> 32) == vBits) { w += aw(key(i).toInt); i += 1 }
          val v = vBits.toInt
          nbrs(p) = v; ew(p) = w; p += 1
          val q = lower(v); lower(v) = q + 1
          nbrs(q) = u; ew(q) = w
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

  /** The first row `u` in `[0, n]` whose edges start at or after `pos`
    * (its entries, in `rowStart`, are non-decreasing).
    */
  private def firstRowFrom(rowStart: Array[Int], n: Int, pos: Int): Int = {
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (rowStart(mid) < pos) lo = mid + 1 else hi = mid
    }
    lo
  }
}
