package perfbench

import scala.collection.mutable

/** Turns a traced run's spans and counters into the per-layer metrics.
  *
  * Each root span is one repetition of a phase ("setup" or "artifact").
  * A layer's value is the median over the repetitions that ran it of the
  * layer's total in that repetition; a layer the workload never runs
  * reports 0.
  */
object TraceReport {

  /** Spans whose time is reported, by metric name. */
  val timed: Vector[(String, String)] = Vector(
    "flavor.universe_s" -> "flavor.universe",
    "flavor.profiles_s" -> "flavor.profiles",
    "flavor.pair_shared_s" -> "flavor.pair_shared",
    "data.generate_s" -> "data.generate",
    "data.phrases_s" -> "data.phrases",
    "pipeline.phrases_df_s" -> "pipeline.phrases_df",
    "ingest.alias_s" -> "ingest.alias",
    "nullmodel.profile_s" -> "nullmodel.profile",
    "nullmodel.sample_s" -> "nullmodel.sample",
    "pairing.null_score_s" -> "pairing.null_score",
    "pairing.real_score_s" -> "pairing.real_score",
    "contribution.chi_s" -> "contribution.chi",
    "contribution.top_s" -> "contribution.top",
    "stats.table1_s" -> "stats.table1",
    "stats.fig2_s" -> "stats.fig2",
    "stats.fig3_s" -> "stats.fig3",
    "artifact.fig4_s" -> "fig4",
    "artifact.stats_s" -> "stats",
    "artifact.fig5_s" -> "fig5",
  )

  /** Counts recorded at span boundaries, with their units. */
  val counted: Vector[(String, String)] = Vector(
    "flavor.pair_shared_rows" -> "count", "flavor.pair_density" -> "ratio",
    "data.recipes" -> "count", "data.phrases" -> "count",
    "ingest.phrases_in" -> "count", "ingest.matched" -> "count", "ingest.unmatched" -> "count",
    "ingest.noise" -> "count", "ingest.match_ratio" -> "ratio",
    "nullmodel.profile_rows" -> "count", "nullmodel.sampled_rows" -> "count",
    "pairing.null_pairs" -> "count", "pairing.real_recipes" -> "count", "pairing.real_pairs" -> "count",
    "pairing.cells" -> "count", "contribution.chi_rows" -> "count",
  )

  /** Spans that launch Spark jobs. */
  val sparkSpans: Vector[String] = Vector(
    "ingest.alias", "flavor.pair_shared", "pipeline.phrases_df", "nullmodel.profile",
    "pairing.real_score", "pairing.null_score", "contribution.chi",
    "stats.table1", "stats.fig2", "stats.fig3")

  private val layerPrefixes =
    Seq("flavor.", "data.", "pipeline.", "ingest.", "nullmodel.", "pairing.", "contribution.", "stats.")

  def perLayer(t: Tracer, c: SparkCounters, sessionS: Double, gcSetup: Seq[Double],
               gcArtifact: Seq[Double]): mutable.LinkedHashMap[String, (Double, String)] = {
    val spans = t.spans
    val roots = spans.filter(_.parent < 0)
    val measured = roots.filter(r => r.name == "setup" || r.name == "artifact")
    val byRoot = spans.groupBy(_.root)
    def med(xs: Iterable[Double]) = Main.median(xs)

    /** Median over measured roots that contain a value of `f(root)`. */
    def perRoot(f: Span => Option[Double]): Double = med(measured.flatMap(f))
    def phase(name: String)(f: Span => Double): Double = med(measured.filter(_.name == name).map(f))

    val out = mutable.LinkedHashMap.empty[String, (Double, String)]
    for ((metric, span) <- timed)
      out(metric) = (perRoot { r =>
        val xs = byRoot(r.id).filter(_.name == span)
        if (xs.isEmpty) None else Some(xs.map(_.seconds).sum)
      }, "s")

    val cells = spans.filter(_.name == "pairing.cell").map(_.seconds).sorted
    def pct(q: Double) = if (cells.isEmpty) 0.0 else cells(math.min(cells.size - 1, (q * cells.size).toInt))
    out("pairing.cell_p50_s") = (pct(0.5), "s")
    out("pairing.cell_p90_s") = (pct(0.9), "s")

    val counts = t.countsByRoot
    for ((name, unit) <- counted)
      out(name) = (med(counts.collect { case ((`name`, _), v) => v }), unit)

    val groups = c.byGroup.toMap.map { case (g, a) =>
      val at = g.lastIndexOf('@')
      val key = if (at < 0) (g, -1) else (g.take(at), g.drop(at + 1).toInt)
      key -> a
    }
    for (span <- sparkSpans) {
      val accs = measured.flatMap(r => groups.get((span, r.id)))
      out(s"spark.$span.jobs") = (med(accs.map(_.jobs.toDouble)), "count")
      out(s"spark.$span.tasks") = (med(accs.map(_.tasks.toDouble)), "count")
      out(s"spark.$span.executor_run_s") = (med(accs.map(_.runMs / 1e3)), "s")
      out(s"spark.$span.shuffle_write_mb") = (med(accs.map(_.shuffleWrite / 1048576.0)), "MB")
    }
    def spill(root: Span) = groups.collect { case ((_, id), a) if id == root.id => a.spill / 1048576.0 }.sum
    out("spark.spill_mb") = (phase("setup")(spill) + phase("artifact")(spill), "MB")
    out("spark.session_s") = (sessionS, "s")
    out("jvm.gc_setup_s") = (med(gcSetup), "s")
    out("jvm.gc_artifact_s") = (med(gcArtifact), "s")

    // Share of the traced total that the layer spans' self times account for.
    def attributed(root: Span) =
      byRoot(root.id).filter(s => layerPrefixes.exists(s.name.startsWith)).map(_.selfSeconds).sum
    val total = phase("setup")(_.seconds) + phase("artifact")(_.seconds)
    out("trace.self_share") = ((phase("setup")(attributed) + phase("artifact")(attributed)) / total, "ratio")
    out
  }
}
