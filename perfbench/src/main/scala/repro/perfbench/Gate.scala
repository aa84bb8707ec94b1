package repro.perfbench

import scala.collection.mutable

/** What one detection returned, in one shape for both engines. */
final case class Detection(
    set: Array[Int],
    density: Double,
    rounds: Int,
    longTailPeels: Long,
    lpoTrims: Long,
    snapshots: Int)

/** The input's undirected simple graph, built by the benchmark itself (not
  * by `LocalGraph`): self-loops dropped, parallel edges coalesced by
  * summing weights, `src < dst`.
  */
final class Coalesced(val n: Int, val src: Array[Int], val dst: Array[Int],
                      val w: Array[Double], val prior: Array[Double]) {
  val degree: Array[Int] = {
    val d = new Array[Int](n)
    src.foreach(d(_) += 1); dst.foreach(d(_) += 1)
    d
  }
  def m: Int = src.length
}

object Coalesced {
  def apply(in: Input): Coalesced = {
    val acc = new java.util.TreeMap[java.lang.Long, java.lang.Double]()
    in.edges.foreach { case (a, b, w) =>
      if (a != b) {
        val key = math.min(a, b).toLong * in.n + math.max(a, b)
        acc.merge(key, w, (x: java.lang.Double, y: java.lang.Double) => x + y)
      }
    }
    val m = acc.size
    val src = new Array[Int](m); val dst = new Array[Int](m); val w = new Array[Double](m)
    var i = 0
    acc.forEach { (key, weight) =>
      src(i) = (key / in.n).toInt; dst(i) = (key % in.n).toInt; w(i) = weight; i += 1
    }
    new Coalesced(in.n, src, dst, w, in.prior)
  }
}

/** Independent recomputation of `g(S)` for the output gate.
  *
  * Edge metrics: `g(S) = (Σ_{i∈S} a_i + Σ_{(i,j)∈E[S]} c_ij) / |S|` with the
  * effective weights of each metric written out here (DG: c=1, a=0; DW:
  * c=Σw, a=0; FD: a=prior, c=1/ln(max(deg_i, deg_j)+5); the Listing-1
  * fraud metric: a=prior, c=Σamount). Clique metrics: k-cliques inside S
  * over |S|.
  */
sealed trait Density {
  def k: Int
  def of(set: Array[Int]): Double
}

final class EdgeDensity(g: Coalesced, a: Array[Double], c: Array[Double]) extends Density {
  val k = 2
  def of(set: Array[Int]): Double = {
    if (set.isEmpty) return 0.0
    val in = new Array[Boolean](g.n)
    var f = 0.0
    set.foreach { u => in(u) = true; f += a(u) }
    var e = 0
    while (e < g.m) { if (in(g.src(e)) && in(g.dst(e))) f += c(e); e += 1 }
    f / set.length
  }
}

object EdgeDensity {
  def apply(g: Coalesced, metric: String): EdgeDensity = {
    val zeros = new Array[Double](g.n)
    metric match {
      case "DG" => new EdgeDensity(g, zeros, Array.fill(g.m)(1.0))
      case "DW" => new EdgeDensity(g, zeros, g.w)
      case "FD" => new EdgeDensity(g, g.prior, Array.tabulate(g.m) { e =>
        1.0 / math.log(math.max(g.degree(g.src(e)), g.degree(g.dst(e))) + 5.0)
      })
      case "prior+amount" => new EdgeDensity(g, g.prior, g.w)
      case other => throw new IllegalArgumentException(s"no edge density for $other")
    }
  }
}

final class CliqueDensity(g: Coalesced, val k: Int) extends Density {
  require(k == 3 || k == 4)

  /** Number of k-cliques of G[S]: orient each edge low → high id, then
    * intersect forward neighbourhoods.
    */
  def cliques(set: Array[Int]): Long = {
    val in = new Array[Boolean](g.n)
    set.foreach(in(_) = true)
    val fwd = Array.fill(g.n)(mutable.ArrayBuilder.make[Int])
    var e = 0
    while (e < g.m) {
      if (in(g.src(e)) && in(g.dst(e))) fwd(g.src(e)) += g.dst(e)
      e += 1
    }
    val adj = fwd.map { b => val a = b.result(); java.util.Arrays.sort(a); a }
    def common(x: Array[Int], y: Array[Int]): Array[Int] = {
      val out = mutable.ArrayBuilder.make[Int]
      var i = 0; var j = 0
      while (i < x.length && j < y.length) {
        if (x(i) == y(j)) { out += x(i); i += 1; j += 1 }
        else if (x(i) < y(j)) i += 1 else j += 1
      }
      out.result()
    }
    var total = 0L
    set.foreach { u =>
      adj(u).foreach { v =>
        val uv = common(adj(u), adj(v))
        if (k == 3) total += uv.length
        else uv.foreach(x => total += common(uv, adj(x)).length)
      }
    }
    total
  }

  def of(set: Array[Int]): Double =
    if (set.isEmpty) 0.0 else cliques(set).toDouble / set.length
}

/** The output gate of one workload config (one metric on one input).
  *
  * Checks, on every detection: the reported density equals the
  * recomputed `g(S^p)` within 1e-9 relative; `g(S^p) ≥ g_greedy/(k(1+ε))`
  * (Thm 4.2); the set is the same on every op; and, when a reference
  * result from another engine is given, the same set with the same
  * density. The recomputed density is memoised on the first op's set,
  * because every later op must return that same set.
  */
final class Gate(density: Density, val gGreedy: Double, eps: Double,
                 reference: Option[Detection]) {
  private var first: Option[(Array[Int], Double)] = None

  /** `g(S^p)` of the first accepted op's set. */
  def recomputed: Double = first.map(_._2).getOrElse(Double.NaN)

  /** `None` when the detection passes, else the reason it fails. */
  def check(d: Detection): Option[String] = {
    val set = d.set
    if (set.isEmpty) return Some("empty best set")
    var i = 1
    while (i < set.length) {
      if (set(i - 1) >= set(i)) return Some("best set not sorted and unique")
      i += 1
    }
    val g = first match {
      case Some((s, gs)) if java.util.Arrays.equals(s, set) => gs
      case Some(_) => return Some("best set differs from the first op's")
      case None => density.of(set)
    }
    if (!Gate.close(g, d.density))
      return Some(f"reported density ${d.density}%.12g != recomputed $g%.12g")
    if (g < gGreedy / (density.k * (1 + eps)) * (1 - 1e-12))
      return Some(f"g=$g%.6g below g_greedy/(k(1+eps)) = ${gGreedy / (density.k * (1 + eps))}%.6g")
    reference.foreach { r =>
      if (!java.util.Arrays.equals(r.set, set))
        return Some(s"best set (${set.length}) differs from the local engine's (${r.set.length})")
      if (!Gate.close(r.density, d.density))
        return Some(f"density ${d.density}%.12g != local engine's ${r.density}%.12g")
    }
    if (first.isEmpty) first = Some((set.clone(), g))
    None
  }
}

object Gate {
  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b)) || a == b
}
