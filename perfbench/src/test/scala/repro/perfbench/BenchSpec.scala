package repro.perfbench

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite

/** The benchmark's own tests, on inputs scaled down to a few percent of the
  * workload shapes. Run with `sbt test` inside `perfbench/`.
  */
class BenchSpec extends AnyFunSuite {
  private val Scale = 0.04

  private def run(workload: String, seed: Long, trace: Boolean,
                  tamper: Detection => Detection = identity): Result =
    Bench.run(Opts(workload, seed, seconds = 0.5, trace = trace, scale = Scale), tamper)

  /** Metric names declared in BENCHMARK.json under `section`. */
  private def declared(section: String): Seq[String] = {
    val json = new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), "UTF-8")
    val body = json.drop(json.indexOf(s""""$section"""")).takeWhile(_ != ']')
    """"name":\s*"([^"]+)"""".r.findAllMatchIn(body).map(_.group(1)).toSeq
  }

  Workloads.names.foreach { w =>
    test(s"$w runs end to end on a second seed with every output accepted") {
      val r = run(w, seed = 2, trace = false)
      assert(r.problems.isEmpty, r.problems)
      assert(r.correct && r.failed == 0 && r.attempted > 0)
      assert(r.metrics.map(_.name) == declared("end_to_end"))
      r.metrics.foreach(m => assert(m.value > 0, m))
    }

    test(s"$w traced run reports every per-layer metric and repeats its exact counts") {
      val a = run(w, seed = 3, trace = true)
      val b = run(w, seed = 3, trace = true)
      assert(a.correct && b.correct, a.problems ++ b.problems)
      assert(a.layers.map(_.name) == declared("per_layer"))
      val exact = Seq("local.rounds", "local.lpo_trims", "metric.cliques", "spark.jobs", "spark.rounds")
      exact.foreach(name => assert(a.metric(name) == b.metric(name), name))
      if (w.startsWith("spark")) assert(a.metric("spark.jobs") > 0 && a.metric("spark.rounds") > 0)
      else assert(a.metric("local.rounds") > 0 && a.metric("local.csr_build_ms") > 0)
      if (w.endsWith("triangle") || w.startsWith("clique")) assert(a.metric("metric.cliques") > 0)
    }
  }

  test("a perturbed density is counted as failed") {
    val r = run("edge-window", seed = 4, trace = false,
      tamper = d => d.copy(density = d.density * (1 + 1e-6)))
    assert(!r.correct && r.attempted > 0 && r.failed == r.attempted)
  }

  test("a dropped vertex is counted as failed") {
    val r = run("spark-fraud", seed = 4, trace = false, tamper = d => d.copy(set = d.set.drop(1)))
    assert(!r.correct && r.attempted > 0 && r.failed == r.attempted)
  }

  test("tail is the highest percentile with ten samples beyond it") {
    val xs = (1 to 40).map(_.toDouble)
    assert(Stats.tail(xs) == ((30.0, 75.0, 10)))
    assert(Stats.tail(Seq(3.0, 1.0, 2.0)) == ((3.0, 100.0, 0)))
    assert(Stats.tail((1 to 15).map(_.toDouble)) == ((15.0, 100.0, 0)))
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("span self time excludes overlapping children once") {
    assert(Tracer.union(Seq((0.0, 2.0), (1.0, 3.0), (5.0, 6.0))) == 4.0)
  }
}
