package repro.local

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.TestGraphs
import repro.testkit.Check.forAll

class LocalGraphSpec extends AnyFunSuite {

  private val g = LocalGraph.fromEdges(4,
    Seq((0, 1, 2.0), (1, 2, 1.0), (0, 2, 0.5), (2, 3, 4.0)))

  test("vertex and edge counts") {
    assert(g.n == 4)
    assert(g.m == 4)
  }

  test("degrees") {
    assert(g.degree(0) == 2)
    assert(g.degree(1) == 2)
    assert(g.degree(2) == 3)
    assert(g.degree(3) == 1)
  }

  test("adjacency is sorted") {
    for (u <- 0 until g.n) {
      val nb = (g.offsets(u) until g.offsets(u + 1)).map(g.nbrs)
      assert(nb == nb.sorted, s"adjacency of $u not sorted")
    }
  }

  test("hasEdge agrees with edge list in both directions") {
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(g.hasEdge(2, 3) && g.hasEdge(3, 2))
    assert(!g.hasEdge(0, 3) && !g.hasEdge(3, 0))
    assert(!g.hasEdge(1, 3))
  }

  test("totalEdgeWeight counts each undirected edge once") {
    assert(math.abs(g.totalEdgeWeight - 7.5) < 1e-12)
  }

  test("parallel (duplicate) edges coalesce by summing weights") {
    val h = LocalGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 0, 2.5), (0, 1, 0.5)))
    assert(h.m == 1)
    assert(math.abs(h.totalEdgeWeight - 4.0) < 1e-12)
  }

  test("self-loops are dropped") {
    val h = LocalGraph.fromEdges(3, Seq((0, 0, 9.0), (0, 1, 1.0)))
    assert(h.m == 1)
  }

  test("reversed input edges are canonicalized") {
    val h = LocalGraph.fromEdges(3, Seq((2, 0, 1.0)))
    assert(h.canonicalEdges.toSeq == Seq((0, 2, 1.0)))
  }

  test("canonicalEdges round-trips through fromEdges") {
    val h = LocalGraph.fromEdges(4, g.canonicalEdges.toSeq)
    assert(h.canonicalEdges.toSeq.sorted == g.canonicalEdges.toSeq.sorted)
  }

  test("vertex weights default to zero") {
    assert(g.vw.forall(_ == 0.0))
  }

  test("explicit vertex weights are preserved") {
    val h = LocalGraph.fromEdges(2, Seq((0, 1, 1.0)), Array(0.5, 1.5))
    assert(h.vw.toSeq == Seq(0.5, 1.5))
  }

  test("out-of-range edges are rejected") {
    assertThrows[IllegalArgumentException] {
      LocalGraph.fromEdges(2, Seq((0, 5, 1.0)))
    }
  }

  test("non-finite edge weights are rejected, naming the edge") {
    for (w <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -1.0)) {
      val e = intercept[IllegalArgumentException] {
        LocalGraph.fromEdges(3, Seq((0, 1, 1.0), (2, 1, w)))
      }
      assert(e.getMessage.contains("(2,1)"), e.getMessage)
    }
  }

  test("non-finite vertex weights are rejected, naming the vertex") {
    for (w <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -1.0)) {
      val e = intercept[IllegalArgumentException] {
        LocalGraph.fromEdges(3, Seq((0, 1, 1.0)), Array(0.0, 0.0, w))
      }
      assert(e.getMessage.contains("vertex 2"), e.getMessage)
    }
  }

  test("negative endpoints are rejected") {
    assertThrows[IllegalArgumentException] {
      LocalGraph.fromEdges(2, Seq((-1, 1, 1.0)))
    }
  }

  test("out-of-range self-loops are rejected, not dropped") {
    for ((n, a) <- Seq((2, 5), (2, -1))) {
      val e = intercept[IllegalArgumentException] {
        LocalGraph.fromEdges(n, Seq((0, 1, 1.0), (a, a, 1.0)))
      }
      assert(e.getMessage.contains(s"($a,$a) out of range"), e.getMessage)
    }
  }

  test("the first bad triple in input order is named, at every thread count") {
    val rnd = new scala.util.Random(7)
    val good = Vector.fill(12000)((rnd.nextInt(40), rnd.nextInt(40), rnd.nextDouble()))
    val nonFinite = (3, 4, Double.NaN); val outOfRange = (5, 40, 1.0)
    for ((first, second, named) <- Seq((nonFinite, outOfRange, "(3,4) has non-finite weight"),
                                       (outOfRange, nonFinite, "(5,40) out of range"))) {
      // The two bad triples land in different chunks at 8 threads.
      val edges = good.updated(2500, first).updated(9000, second)
      for (t <- Seq(1, 8)) {
        val e = intercept[IllegalArgumentException](LocalGraph.fromEdges(40, edges, threads = t))
        assert(e.getMessage.contains(named), s"t=$t: ${e.getMessage}")
      }
    }
  }

  test("the first non-finite vertex weight is named") {
    val vw = Array.fill(10)(1.0)
    vw(7) = Double.NaN; vw(3) = Double.PositiveInfinity; vw(9) = Double.NaN
    for (t <- Seq(1, 8)) {
      val e = intercept[IllegalArgumentException] {
        LocalGraph.fromEdges(10, Seq((0, 1, 1.0)), vw, threads = t)
      }
      assert(e.getMessage.contains("vertex 3 "), s"t=$t: ${e.getMessage}")
    }
  }

  test("isolated vertices are representable") {
    val h = LocalGraph.fromEdges(5, Seq((0, 1, 1.0)))
    assert(h.n == 5 && h.degree(4) == 0)
  }

  test("property: degree sums to twice the edge count") {
    forAll(TestGraphs.genGraph(maxN = 12)) { h =>
      assert((0 until h.n).map(h.degree).sum.toLong == 2 * h.m)
    }
  }

  test("property: hasEdge symmetric and matches canonical list") {
    forAll(TestGraphs.genGraph(maxN = 10)) { h =>
      val set = h.canonicalEdges.map(e => (e._1, e._2)).toSet
      for (u <- 0 until h.n; v <- 0 until h.n if u != v)
        assert(h.hasEdge(u, v) == (set.contains((u, v)) || set.contains((v, u))))
    }
  }

  /** The straightforward build: coalesce through a map keyed by the
    * canonical pair (summing in input order), then sort each adjacency list.
    */
  private def referenceBuild(n: Int, edges: Seq[(Int, Int, Double)],
                             vertexWeights: Array[Double]): LocalGraph = {
    val coalesced = new java.util.HashMap[Long, Double]()
    edges.foreach { case (a, b, w) =>
      if (a != b) {
        val (u, v) = if (a < b) (a, b) else (b, a)
        coalesced.merge(u.toLong * n + v, w, (x, y) => x + y)
      }
    }
    val deg = new Array[Int](n)
    coalesced.forEach { (key, _) => deg((key / n).toInt) += 1; deg((key % n).toInt) += 1 }
    val offsets = deg.scanLeft(0)(_ + _)
    val pos = offsets.clone()
    val nbrs = new Array[Int](offsets(n))
    val ew = new Array[Double](offsets(n))
    coalesced.forEach { (key, w) =>
      val a = (key / n).toInt; val b = (key % n).toInt
      nbrs(pos(a)) = b; ew(pos(a)) = w; pos(a) += 1
      nbrs(pos(b)) = a; ew(pos(b)) = w; pos(b) += 1
    }
    for (u <- 0 until n) {
      val idx = (offsets(u) until offsets(u + 1)).sortBy(nbrs)
      val nn = idx.map(nbrs); val we = idx.map(ew)
      idx.indices.foreach { j => nbrs(offsets(u) + j) = nn(j); ew(offsets(u) + j) = we(j) }
    }
    new LocalGraph(n, offsets, nbrs, ew,
      if (vertexWeights != null) vertexWeights else new Array[Double](n))
  }

  /** Raw triples over few vertices: many duplicates in both orientations,
    * self-loops, isolated vertices, weights of mixed magnitude (so summation
    * order shows in the bits), and n = 0.
    */
  private val genRaw: Gen[(Int, Seq[(Int, Int, Double)], Array[Double])] =
    for {
      n <- Gen.frequency(1 -> Gen.const(0), 9 -> Gen.choose(1, 14))
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val rnd = new scala.util.Random(seed)
      val used = 1 + rnd.nextInt(math.max(1, n)) // vertices >= used stay isolated
      val m = if (n == 0) 0 else rnd.nextInt(4 * n + 1)
      val edges = Seq.fill(m) {
        (rnd.nextInt(used), rnd.nextInt(used), rnd.nextDouble() * math.pow(10, rnd.nextInt(7) - 3))
      }
      val vw = if (rnd.nextBoolean()) Array.fill(n)(rnd.nextDouble()) else null
      (n, edges, vw)
    }

  private def assertSameGraph(got: LocalGraph, want: LocalGraph, clue: String): Unit = {
    assert(got.n == want.n, clue)
    assert(java.util.Arrays.equals(got.offsets, want.offsets), s"offsets, $clue")
    assert(java.util.Arrays.equals(got.nbrs, want.nbrs), s"nbrs, $clue")
    assert(java.util.Arrays.equals(got.ew, want.ew), s"ew, $clue")
    assert(java.util.Arrays.equals(got.vw, want.vw), s"vw, $clue")
  }

  private val threadCounts = Seq(1, 2, 3, 8)

  test("property: the build matches the map-and-sort reference bit for bit") {
    forAll(genRaw, n = 200) { case (n, edges, vw) =>
      val want = referenceBuild(n, edges, vw)
      for (t <- threadCounts) assertSameGraph(LocalGraph.fromEdges(n, edges, vw, t), want, s"t=$t")
    }
  }

  /** Up to ~20K triples over at most 50 vertices: enough to split every
    * build pass into several chunks, with runs of duplicates crossing the
    * chunk boundaries.
    */
  private val genLong: Gen[(Int, Vector[(Int, Int, Double)])] =
    for {
      n <- Gen.choose(2, 50)
      m <- Gen.choose(2000, 20000)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val rnd = new scala.util.Random(seed)
      (n, Vector.fill(m) {
        (rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble() * math.pow(10, rnd.nextInt(7) - 3))
      })
    }

  test("property: multi-chunk builds match the reference bit for bit at every thread count") {
    forAll(genLong, n = 20) { case (n, edges) =>
      val want = referenceBuild(n, edges, null)
      for (t <- threadCounts) assertSameGraph(LocalGraph.fromEdges(n, edges, threads = t), want, s"t=$t")
    }
  }

  test("ids and input indices past 16 bits build bit for bit like the reference") {
    // The build sorts one packed (id << 32) | input index key per edge: a key
    // with too few bits for either half, or one unpacked with sign
    // extension, mixes up edges here.
    val n = 1 << 18
    val rnd = new scala.util.Random(31)
    val pairs = Vector.fill(60000) {
      ((1 << 16) + rnd.nextInt(n - (1 << 16)), rnd.nextInt(n), rnd.nextDouble() * math.pow(10, rnd.nextInt(7) - 3))
    }
    // Every third pair again with its ends swapped, every fifth as it is,
    // each with a new weight.
    val dups = pairs.indices.filter(i => i % 3 == 0 || i % 5 == 0).map { i =>
      val (a, b, _) = pairs(i); val w = rnd.nextDouble() * math.pow(10, rnd.nextInt(7) - 3)
      if (i % 3 == 0) (b, a, w) else (a, b, w)
    }
    val edges = rnd.shuffle(pairs ++ dups)
    assert(edges.length > (1 << 16))
    val want = referenceBuild(n, edges, null)
    for (t <- Seq(1, 3, 8)) assertSameGraph(LocalGraph.fromEdges(n, edges, threads = t), want, s"t=$t")
  }

  test("a power-law graph builds bit for bit like the reference at 1 and 8 threads") {
    val edges = repro.data.GraphGen.powerLaw(3000, 20000, 0.5, seed = 21) ++
      repro.data.GraphGen.plantBlock(repro.data.GraphGen.sample(3000, 25, 22), 0.8, 3.0, 23)
    val want = referenceBuild(3000, edges, null)
    for (t <- Seq(1, 8)) assertSameGraph(LocalGraph.fromEdges(3000, edges, threads = t), want, s"t=$t")
  }
}
