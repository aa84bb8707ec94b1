package repro.exp

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._
import repro.core._
import repro.data.{Dataset, Datasets}
import repro.local.{DupinLocal, PeelResult}
import repro.spade.Spade
import repro.testkit.TestGraphs

/** The table runner: Table 2's text, the sweep row orders, and each
  * (method, metric) cell of Tables 5–8 against a direct call of the
  * baseline it names.
  */
class RunnerSpec extends AnyFunSuite {

  /** Cliques of 4, 5 and 6 in a chain, weighted edges and vertices: every
    * metric has edges, triangles and 4-cliques to peel.
    */
  private val tiny: Dataset = {
    val g = TestGraphs.cliqueChain(Seq(4, 5, 6), (a, b) => 1.0 + (a + b) % 3)
    Dataset("tiny", "test", g.n, g.canonicalEdges.toVector,
      Array.tabulate(g.n)(u => 0.25 * (u % 3)), Set.empty)
  }

  test("Table 2 renders the committed results/table2.txt byte for byte") {
    // Read first: rendering the table rewrites the file.
    val committed = Files.readAllBytes(Paths.get("results", "table2.txt"))
    val text = Tables.table2()
    assert(text.getBytes("UTF-8").sameElements(committed), text)
  }

  test("a capped clique dataset is built once and cached") {
    val d = Datasets.cliqueVariant("gfg")
    assert(d.name == "gfg-cq")
    assert(Datasets.cliqueVariant("gfg") eq d)
  }

  test("edge and clique sweeps list the methods in Table 2's row order") {
    assert(Runner.edgeMethods == Seq("Spade", "GBBS", "PKMC", "FWA", "ALENEX", "Dupin"))
    assert(Runner.cliqueMethods == Seq("Spade", "kCLIST", "PBBS", "Dupin"))
  }

  test("every Table 5-8 cell runs its method: density and rounds of a direct call") {
    val t = 2
    val g = tiny.graph
    def dupin(gpoLpo: Boolean)(m: Metric) =
      DupinLocal.run(m, g, DupinLocal.Config(eps = 0.1, gpo = gpoLpo, lpo = gpoLpo, threads = t))
    val peelers: Map[String, Metric => PeelResult] = Map(
      "GBBS" -> (m => BucketPeeling.run(m, g, threads = t)),
      "PKMC" -> (m => Pkmc.run(m, g)),
      "FWA" -> (m => Fwa.run(m, g)),
      "ALENEX" -> (m => Alenex.run(m, g, threads = t)),
      "kCLIST" -> (m => Kclist.run(m, g, threads = t)),
      "PBBS" -> (m => BucketPeeling.run(m, g, threads = t)),
      "Dupin" -> dupin(gpoLpo = false),
      "DupinLPO" -> dupin(gpoLpo = true))
    // Spade's cell is one batch here (under 1K edges), counted as one round.
    def direct(method: String, m: Metric): (Double, Int) =
      if (method == "Spade") {
        val sp = new Spade(m, tiny.n, tiny.vertexWeights)
        sp.insertBatch(tiny.edges)
        (sp.reportedDensity, 1)
      } else {
        val r = peelers(method)(m)
        (r.bestDensity, r.rounds)
      }
    val cells =
      (for (method <- Runner.edgeMethods :+ "DupinLPO"; m <- Seq(DG, DW, FD)) yield (method, m)) ++
      (for (method <- Runner.cliqueMethods :+ "DupinLPO"; m <- Seq(TDS, KCliDS(4))) yield (method, m))
    for ((method, m) <- cells) Runner.run(method, m, tiny, t = t) match {
      case Runner.Ok(_, density, rounds) =>
        assert((density, rounds) == direct(method, m), s"$method ${m.name}")
      case Runner.Tle => fail(s"$method ${m.name}: TLE")
    }
    assert(intercept[IllegalArgumentException](Runner.run("Nope", DG, tiny)).getMessage
      .contains("Nope"))
  }
}
