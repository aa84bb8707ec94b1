package repro.testkit

import org.scalacheck.Gen
import repro.core.Metric
import repro.local.LocalGraph

/** Shared fixtures: the paper's worked example, random-graph generators,
  * and a brute-force exact DSD oracle for approximation-ratio tests.
  */
object TestGraphs {

  /** A 6-vertex weighted graph realizing the behaviour of the paper's
    * Figures 3/5 example (DW metric): initial density 14/6 = 2.33;
    * sequential peeling removes u1 then u2, after which the density peaks
    * at 11/4 = 2.75 on {u3,u4,u5,u6}; parallel peeling with ε=0 peels in
    * exactly three rounds with groups [u1,u2; u3,u4; u5,u6].
    * Vertices are 0-indexed (u1 = 0, …, u6 = 5).
    */
  val paperExampleEdges: Vector[(Int, Int, Double)] = Vector(
    (0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (2, 4, 2.0), (3, 5, 2.0), (4, 5, 4.0))

  def paperExample: LocalGraph = LocalGraph.fromEdges(6, paperExampleEdges)

  /** A clique over [0, k) plus a sparse path tail — the densest subgraph is
    * the clique for all edge metrics.
    */
  def cliqueWithTail(k: Int, tail: Int, w: Double = 1.0): LocalGraph = {
    val clique = for (i <- 0 until k; j <- i + 1 until k) yield (i, j, w)
    val path = for (i <- k until k + tail) yield (i - 1, i, w)
    LocalGraph.fromEdges(k + tail, clique ++ path)
  }

  /** Cliques of the given sizes, each joined to the next by one edge `(a,
    * b)`, `a < b`, of weight `w(a, b)`: the density grows along the chain,
    * so peeling takes several rounds.
    */
  def cliqueChain(sizes: Seq[Int], w: (Int, Int) => Double = (_, _) => 1.0): LocalGraph = {
    val starts = sizes.scanLeft(0)(_ + _)
    val edges = sizes.indices.flatMap { c =>
      val s = starts(c)
      val clique = for (i <- s until s + sizes(c); j <- i + 1 until s + sizes(c)) yield (i, j)
      if (c == 0) clique else (s - 1, s) +: clique
    }
    LocalGraph.fromEdges(starts.last, edges.map { case (a, b) => (a, b, w(a, b)) })
  }

  /** ScalaCheck generator: connected-ish random weighted graph with
    * n in [2, maxN] and edge probability p; vertex weights in [0, 0.5].
    */
  def genGraph(maxN: Int = 10, p: Double = 0.45,
               weighted: Boolean = true): Gen[LocalGraph] =
    for {
      n <- Gen.choose(2, maxN)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val rnd = new scala.util.Random(seed)
      val edges = for {
        i <- 0 until n; j <- i + 1 until n
        if rnd.nextDouble() < p
      } yield (i, j, if (weighted) 0.1 + rnd.nextDouble() * 3 else 1.0)
      val vw = Array.fill(n)(rnd.nextDouble() * 0.5)
      LocalGraph.fromEdges(n, edges, vw)
    }

  /** Exact densest subgraph by subset enumeration (n ≤ 16). Returns
    * (S*, g(S*)) under the metric; ties broken toward larger density only.
    */
  def bruteForceDensest(metric: Metric, g: LocalGraph): (Set[Int], Double) = {
    require(g.n <= 16, s"brute force limited to 16 vertices, got ${g.n}")
    var bestSet = Set.empty[Int]
    var best = Double.NegativeInfinity
    val total = 1 << g.n
    var mask = 1
    while (mask < total) {
      val dens = subsetDensity(metric, g, mask)
      if (dens > best) {
        best = dens
        bestSet = (0 until g.n).filter(i => (mask & (1 << i)) != 0).toSet
      }
      mask += 1
    }
    (bestSet, best)
  }

  /** g(S) for the subset encoded in `mask`, computed from first principles. */
  def subsetDensity(metric: Metric, g: LocalGraph, mask: Int): Double = {
    val size = Integer.bitCount(mask)
    if (size == 0) return 0.0
    if (metric.edgeBased) {
      val pg = metric.prepare(g)
      var f = 0.0
      var u = 0
      while (u < pg.n) {
        if ((mask & (1 << u)) != 0) {
          f += pg.vw(u)
          var i = pg.offsets(u)
          while (i < pg.offsets(u + 1)) {
            val v = pg.nbrs(i)
            if (u < v && (mask & (1 << v)) != 0) f += pg.ew(i)
            i += 1
          }
        }
        u += 1
      }
      f / size
    } else {
      // The k-cliques a < b < … of G[mask], listed over adjacency bitmasks
      // (independent of the incremental clique state under test).
      val adj = Array.tabulate(g.n) { u =>
        (g.offsets(u) until g.offsets(u + 1)).foldLeft(0)((m, i) => m | (1 << g.nbrs(i)))
      }
      def cliques(cand: Int, left: Int): Long =
        if (left == 0) 1L
        else {
          var total = 0L; var rest = cand
          while (rest != 0) {
            val u = Integer.numberOfTrailingZeros(rest); rest &= rest - 1
            total += cliques(cand & adj(u) & (-1 << (u + 1)), left - 1)
          }
          total
        }
      cliques(mask, metric.k).toDouble / size
    }
  }

  /** Direct (non-incremental) peeling weight of u in the active set. */
  def directWeight(metric: Metric, g: LocalGraph, active: Set[Int], u: Int): Double = {
    require(active.contains(u))
    if (metric.edgeBased) {
      val pg = metric.prepare(g)
      var w = pg.vw(u)
      var i = pg.offsets(u)
      while (i < pg.offsets(u + 1)) {
        if (active.contains(pg.nbrs(i))) w += pg.ew(i)
        i += 1
      }
      w
    } else {
      val maskAll = active.foldLeft(0)((m, v) => m | (1 << v))
      val k = metric.k
      val fWith = subsetDensity(metric, g, maskAll) * active.size
      val fWithout = subsetDensity(metric, g, maskAll & ~(1 << u)) * (active.size - 1)
      fWith - fWithout
    }
  }
}
