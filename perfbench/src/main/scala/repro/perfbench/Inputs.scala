package repro.perfbench

import repro.data.GraphGen
import scala.util.Random

/** One generated input: raw edge triples exactly as a caller hands them to
  * the engines (duplicates allowed, weights summed on load) plus per-vertex
  * priors `a_i`.
  */
final case class Input(n: Int, edges: Vector[(Int, Int, Double)], prior: Array[Double]) {
  def m: Int = edges.size
}

/** Input shapes of the four workloads, generated from the run's seed with
  * [[repro.data.GraphGen]]. The shapes follow the dataset analogues in
  * `repro.data.Datasets` (two planted dense blocks over a power-law
  * background, or one planted ring in a bipartite transaction graph), but
  * the seed comes from the command line and nothing is cached.
  * `scale` shrinks vertex and edge counts for the benchmark's own tests.
  */
object Inputs {

  /** `la`-shaped power-law graph: 32K vertices, 590K edge triples. */
  def powerLaw(seed: Long, n0: Int, m0: Int, skew: Double, scale: Double): Input = {
    val n = math.max(64, (n0 * scale).toInt)
    val m = math.max(256, (m0 * scale).toInt)
    val background = GraphGen.powerLaw(n, m, skew, seed)
    val blockSize = math.max(6, math.min(40, n / 100))
    val b1 = GraphGen.sample(n, blockSize, seed + 1)
    val b2 = GraphGen.sample(n, blockSize, seed + 2)
    val planted = GraphGen.plantBlock(b1, 0.8, 4.0, seed + 3) ++
      GraphGen.plantBlock(b2, 0.6, 3.0, seed + 4)
    Input(n, background ++ planted, priors(n, seed))
  }

  /** `gfg`-shaped bipartite transaction graph: customers [0, nC) ×
    * merchants [nC, nC+nM), lognormal amounts, one planted customer ×
    * merchant ring.
    */
  def bipartite(seed: Long, nC0: Int, nM0: Int, m0: Int, skew: Double, scale: Double): Input = {
    val nC = math.max(48, (nC0 * scale).toInt)
    val nM = math.max(16, (nM0 * scale).toInt)
    val m = math.max(256, (m0 * scale).toInt)
    val n = nC + nM
    val background = GraphGen.bipartite(nC, nM, m, skew, seed)
    val ring = math.max(6, math.min(40, n / 100))
    val cust = GraphGen.sample(nC, ring, seed + 1)
    val mch = GraphGen.sample(nM, ring, seed + 2).map(nC + _)
    val planted = GraphGen.plantBipartiteBlock(cust, mch, 0.8, 4.0, seed + 3)
    Input(n, background ++ planted, priors(n, seed))
  }

  /** The same graph with vertex ids relabelled by a permutation drawn from
    * `seed`, and the edge triples in a shuffled order.
    */
  def relabel(in: Input, seed: Long): Input = {
    val rnd = new Random(seed)
    val perm = rnd.shuffle((0 until in.n).toVector).toArray
    val prior = new Array[Double](in.n)
    (0 until in.n).foreach(u => prior(perm(u)) = in.prior(u))
    val edges = in.edges.map { case (a, b, w) =>
      val (x, y) = (perm(a), perm(b))
      if (x < y) (x, y, w) else (y, x, w)
    }
    Input(in.n, rnd.shuffle(edges), prior)
  }

  /** Vertex priors `a_i = |N(0,1)| · 0.1`, as in the dataset analogues. */
  private def priors(n: Int, seed: Long): Array[Double] = {
    val rnd = new Random(seed + 5)
    Array.fill(n)(math.abs(rnd.nextGaussian()) * 0.1)
  }
}
