package repro.data

import repro.local.LocalGraph
import scala.util.Random

/** A materialized dataset analogue: canonical edges + vertex suspiciousness
  * (used by FD) + the CSR graph, plus the planted fraud-block membership
  * (ground truth for the case-study simulator).
  */
final case class Dataset(
    name: String,
    kind: String,
    n: Int,
    edges: Vector[(Int, Int, Double)],
    vertexWeights: Array[Double],
    fraudMembers: Set[Int]) {
  lazy val graph: LocalGraph = LocalGraph.fromEdges(n, edges, vertexWeights)
  def m: Int = edges.size
  def avgDegree: Double = if (n == 0) 0 else 2.0 * graph.m / n
}

/** Registry of the eight Table-4 dataset analogues at ~1/1000 the paper's
  * scale (DESIGN.md §3). `BENCH_SCALE` scales vertex/edge counts. Each
  * dataset gets 2 planted dense blocks so DSD has a meaningful target, like
  * the fraud communities of Fig. 2.
  */
object Datasets {

  val scale: Double = sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)

  private def s(x: Int): Int = math.max(8, (x * scale).round.toInt)

  /** name → (V, E, kind, power-law skew). Average degrees mirror Table 4:
    * gfg 17, soc 18, uk 24, rv 35, kron 58, sk 38, la 37, bio 22. */
  private val specs: Seq[(String, Int, Int, String, Double)] = Seq(
    ("gfg",  4000, 34000,  "Transaction",     0.55),
    ("soc",  20000, 180000, "Social network", 0.55),
    ("uk",   24000, 288000, "Web graph",      0.75),
    ("rv",   28000, 490000, "Social network", 0.60),
    ("kron", 1600,  46000,  "Cheminformatics",0.70),
    ("sk",   30000, 570000, "Web graph",      0.75),
    ("la",   32000, 590000, "Social network", 0.60),
    ("bio",  1500,  16500,  "Biologic graph", 0.50),
  )

  val names: Seq[String] = specs.map(_._1)

  /** Order in which Tables 5/7 present datasets (paper's panel order). */
  val tableOrder: Seq[String] = Seq("soc", "sk", "uk", "la", "rv", "bio", "gfg", "kron")

  private val cache = new java.util.concurrent.ConcurrentHashMap[String, Dataset]()

  def apply(name: String): Dataset = cache.computeIfAbsent(name, build)

  def all: Seq[Dataset] = names.map(apply)

  /** Size-capped variant for the clique metrics (TDS / kCLiDS-4): clique
    * state maintenance is superlinear, and the paper itself reports TLEs
    * there. Cap chosen so the full Table-6 sweep stays tractable. A capped
    * variant is built once and cached as `<name>-cq`.
    */
  def cliqueVariant(name: String): Dataset = {
    val capV = 2500; val capE = 40000
    val d = apply(name)
    if (d.n <= capV && d.m <= capE) d
    else cache.computeIfAbsent(s"$name-cq", _ => {
      val factor = math.min(capV.toDouble / d.n, capE.toDouble / d.m)
      val spec = specs.find(_._1 == name).get
      build(spec._1, math.max(64, (spec._2 * scale * factor).toInt),
            math.max(256, (spec._3 * scale * factor).toInt), spec._4, spec._5,
            nameSuffix = "-cq")
    })
  }

  /** Case-study stream graph (Table 9): a larger Grab-like bipartite
    * transaction network whose final edge batches are the planted fraud
    * rings (the stream's tail), so incremental methods face fraud-forming
    * updates exactly as §6.4 describes.
    */
  def grabStream: Dataset =
    cache.computeIfAbsent("grab", _ => build("grab", s(40000), s(500000), "Transaction", 0.6))

  private def build(name: String): Dataset = {
    val (_, v, e, kind, skew) = specs.find(_._1 == name).get
    build(name, s(v), s(e), kind, skew)
  }

  private def build(name: String, n: Int, m: Int, kind: String, skew: Double,
                    nameSuffix: String = ""): Dataset = {
    val seed = name.hashCode.toLong
    val rnd = new Random(seed)
    val background =
      if (kind == "Transaction") {
        val nC = (n * 0.75).toInt; val nM = n - nC
        GraphGen.bipartite(nC, nM, m, skew, seed)
      } else GraphGen.powerLaw(n, m, skew, seed)
    // Two planted fraud blocks: small, dense, heavy — the DSD target.
    val blockSize = math.max(6, math.min(40, n / 100))
    val b1 = GraphGen.sample(n, blockSize, seed + 1)
    val b2 = GraphGen.sample(n, blockSize, seed + 2)
    val planted =
      if (kind == "Transaction") {
        val nC = (n * 0.75).toInt
        val cust = b1.map(x => x % nC)
        val mch  = b2.map(x => nC + x % (n - nC))
        GraphGen.plantBipartiteBlock(cust.distinct, mch.distinct, 0.8, 4.0, seed + 3)
      } else
        GraphGen.plantBlock(b1, 0.8, 4.0, seed + 3) ++
        GraphGen.plantBlock(b2, 0.6, 3.0, seed + 4)
    val vw = Array.fill(n)(math.abs(rnd.nextGaussian()) * 0.1)
    val fraud: Set[Int] =
      if (kind == "Transaction") {
        val nC = (n * 0.75).toInt
        (b1.map(_ % nC) ++ b2.map(x => nC + x % (n - nC))).toSet
      } else (b1 ++ b2).toSet
    Dataset(name + nameSuffix, kind, n, background ++ planted, vw, fraud)
  }
}
