package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
  def num(d: Double): String =
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** Writes the traced run's spans, with self times, as one JSON document. */
object TraceFile {
  def write(path: String, tr: Tracer, provenance: Seq[(String, String)]): Unit = {
    val self = tr.selfTimes
    val spans = tr.spans.sortBy(_.start).map { s =>
      Json.obj(Seq("id" -> s.id.toString, "parent" -> s.parent.toString, "op" -> s.op.toString,
        "name" -> Json.str(s.name), "start_ms" -> Json.num(s.start), "end_ms" -> Json.num(s.end),
        "self_ms" -> Json.num(self(s.id))))
    }
    val doc = Json.obj(Seq(
      "provenance" -> Json.obj(provenance.map { case (k, v) => k -> Json.str(v) }),
      "spans" -> spans.mkString("[\n", ",\n", "\n]")))
    val p = Paths.get(path)
    Option(p.getParent).foreach(Files.createDirectories(_))
    Files.write(p, doc.getBytes(StandardCharsets.UTF_8))
  }
}

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
  * plus `--git-sha`, `--source-hash` and `--trace-file`.
  * Prints every metric with its unit, the provenance, and as its last line
  * the JSON result.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    val o = Opts(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") == "1",
      gitSha = kv.getOrElse("git-sha", "unknown"),
      sourceHash = kv.getOrElse("source-hash", "unknown"),
      traceFile = kv.get("trace-file"))
    if (!Workloads.names.contains(o.workload)) {
      System.err.println(s"unknown workload ${o.workload}; known: ${Workloads.names.mkString(", ")}")
      sys.exit(2)
    }
    val r = try Bench.run(o)
    finally org.apache.spark.sql.SparkSession.getActiveSession.foreach(_.stop())
    println(s"perfbench ${o.workload} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0}")
    (r.metrics ++ r.layers).foreach { m =>
      println(f"  ${m.name}%-26s ${m.value}%14.4f ${m.unit}%-6s ${m.note}")
    }
    println(f"  ${"failed_frac"}%-26s ${r.failed.toDouble / math.max(1, r.attempted)}%14.4f ${"ratio"}%-6s ${r.failed}/${r.attempted} detections failed")
    r.problems.foreach(p => println(s"  problem: $p"))
    println("provenance " + Json.obj(r.provenance.map { case (k, v) => k -> Json.str(v) }))
    val shown = if (o.trace) r.layers else r.metrics
    val metrics = Json.obj(shown.map(m => m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))))
    println(Json.obj(Seq("correct" -> r.correct.toString, "attempted" -> r.attempted.toString,
      "failed" -> r.failed.toString, "metrics" -> metrics)))
    System.out.flush()
    sys.exit(0)
  }
}
