package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import scala.collection.mutable

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.data.Regions
import repro.exp.Experiments
import repro.exp.Experiments.PairingRow
import repro.pipeline.Pipeline

/** One benchmark workload. `regions` and `nRand` apply to the Fig 4
  * workload; the corpus workload runs Table 1, Fig 2, Fig 3 and Fig 5.
  * The artifacts run at least `minIterations` times.
  */
final case class Workload(name: String, scale: Double, pairing: Boolean,
                          regions: Vector[String] = Vector.empty, nRand: Int = 0,
                          minIterations: Int = 1)

object Workloads {
  // Small corpus scales, so that a run fits the benchmark's time budget
  // (see README.md).
  val all: Vector[Workload] = Vector(
    // Fig 4 cells: the small, negatively pairing KOR pool against all four
    // null models. Scoring the real and the sampled cuisines dominates; the
    // χ and stats layers are bypassed. One iteration is short, so two are
    // timed: the first cold, the second warm.
    Workload("pairing-deep", 0.1, pairing = true, Vector("KOR"), nRand = 1000, minIterations = 2),
    // The real corpus, no Monte Carlo: the stats aggregations and χ.
    Workload("corpus", 0.1, pairing = false),
  )
  def byName(n: String): Option[Workload] = all.find(_.name == n)
}

/** What one protocol pass measured. */
final class Pass {
  val setup, artifact, fig4, stats, fig5, gcSetup, gcArtifact = mutable.ArrayBuffer.empty[Double]
  var pipeline: Pipeline = _
  var pairing = Vector.empty[PairingRow]
  var corpus: CorpusResult = _
  def total: Double = Main.median(setup) + Main.median(artifact)
}

/** Runs one workload in this (fresh) JVM and writes its result.
  *
  *   Main --workload W --seed N --seconds S --trace 0|1 --reference FILE
  *        --out FILE [--git-sha SHA] [--source-sha SHA] [--write-reference]
  *
  * The corpus seed is N and the Monte-Carlo sampling seed N + 4, so seed 7
  * gives the repository's default seeds (7, 11), the only seeds whose
  * outputs are compared with the stored reference values.
  *
  * Set-up runs `SetupReps` times, then the workload's artifacts run until S
  * seconds have passed (at least `minIterations` times); each metric is a
  * median. The traced run (trace 1) does the same with the layer calls
  * re-enacted under spans, then one untraced set-up and the artifacts
  * through the public entry points: both must give the same results, and
  * the difference of their totals is the reported tracing overhead. The
  * traced pass runs first, on the colder JVM, so that difference is an
  * upper bound.
  */
object Main {
  val SetupReps = 3
  val DefaultSeed = 7L

  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2).collect { case Array(k, v) if k.startsWith("--") && !v.startsWith("--") =>
      k.drop(2) -> v }.toMap
    def need(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val w = Workloads.byName(need("workload")).getOrElse(usage(s"unknown workload ${need("workload")}"))
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val trace = need("trace") == "1"
    val refPath = Paths.get(need("reference"))
    val out = Paths.get(need("out"))
    val writeRef = args.contains("--write-reference")
    val corpusSeed = seed
    val sampleSeed = seed + 4
    val reference = Reference.load(refPath)
    if (!writeRef && !reference.has(w.name)) usage(s"no reference values for ${w.name} in $refPath")

    val tSession = System.nanoTime()
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      // The settings of the paper bench suites (SparkSpec.shared).
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    val sessionS = (System.nanoTime() - tSession) / 1e9
    val sc = spark.sparkContext
    sc.setLogLevel("WARN")
    spark.range(1000).selectExpr("sum(id)").collect()

    val meta = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name, "trace" -> trace, "git_sha" -> opts.getOrElse("git-sha", "unknown"),
      "source_sha256" -> opts.getOrElse("source-sha", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors, "driver_heap_mb" -> Jvm.maxHeapMb,
      "java_version" -> System.getProperty("java.version"),
      "spark_version" -> spark.version, "master" -> sc.master,
      "default_parallelism" -> sc.defaultParallelism,
      "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "scale" -> w.scale, "n_rand" -> w.nRand, "regions" -> w.regions,
      "min_iterations" -> w.minIterations,
      "corpus_seed" -> corpusSeed, "sample_seed" -> sampleSeed,
      "setup_reps" -> SetupReps, "seconds" -> seconds,
    )
    println("meta " + Json(meta))

    val counters = new SparkCounters
    if (trace) sc.addSparkListener(counters)
    val tracer = new Tracer(trace, sc)
    val layers = new Layers(spark, tracer)
    val gate = new Gate(w.name, reference, exact = seed == DefaultSeed && !writeRef)
    val paperSigns = Regions.all.map(r => r.code -> r.zSign).toMap

    def timed[A](times: mutable.ArrayBuffer[Double], gc: mutable.ArrayBuffer[Double])(body: => A): A = {
      val g0 = Jvm.gcSeconds; val t0 = System.nanoTime()
      val r = body
      times += (System.nanoTime() - t0) / 1e9
      gc += Jvm.gcSeconds - g0
      r
    }
    def materialise(p: Pipeline): Unit =
      p.productIterator.foreach { case d: Dataset[_] => d.count(); case _ => }
    // Spark's cache manager serves a new DataFrame from the cached data of
    // an equal plan, so every set-up starts from an empty cache.
    def clearCache(): Unit = { spark.catalog.clearCache(); System.gc(); Thread.sleep(100) }

    /** Set-up `reps` times, keeping the last pipeline (untraced, the one
      * `Pipeline.get` returns), then the artifacts until the deadline.
      */
    def pass(traced: Boolean, reps: Int): Pass = {
      val r = new Pass
      for (rep <- 1 to reps) {
        clearCache()
        r.pipeline = timed(r.setup, r.gcSetup) {
          if (traced) tracer.span("setup") { layers.setup(w.scale, corpusSeed) }
          else {
            val p = if (rep == reps) Pipeline.get(spark, w.scale, corpusSeed)
                    else Pipeline.build(spark, w.scale, corpusSeed)
            materialise(p); p
          }
        }
      }
      val p = r.pipeline
      val deadline = System.nanoTime() + (seconds * 1e9).toLong
      while (r.artifact.size < w.minIterations || System.nanoTime() < deadline) {
        timed(r.artifact, r.gcArtifact) {
          if (w.pairing) r.pairing = timed(r.fig4, mutable.ArrayBuffer.empty) {
            if (traced) tracer.span("artifact") { layers.fig4(p, w.nRand, sampleSeed, w.regions) }
            else Experiments.foodPairing(p, w.nRand, sampleSeed, w.regions)
          }
          else if (traced) r.corpus = tracer.span("artifact") { layers.corpus(p, paperSigns) }
          else {
            val (table1, fig2, sizes, slopes, hist) = timed(r.stats, mutable.ArrayBuffer.empty) {
              (Experiments.table1(p), Experiments.categoryComposition(p), Experiments.meanSizes(p),
               Experiments.popularitySlopes(p), Experiments.worldSizeHistogram(p))
            }
            val fig5 = timed(r.fig5, mutable.ArrayBuffer.empty) { Experiments.topContributors(p, paperSigns) }
            r.corpus = CorpusResult(table1, fig2, sizes, slopes, hist, fig5)
          }
        }
        if (w.pairing) gate.pairing(r.pairing, w.regions, w.nRand) else gate.corpus(r.corpus)
      }
      r
    }

    val main = pass(trace, SetupReps)
    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    if (trace) {
      val traced = main.pipeline
      val plain = pass(traced = false, reps = 1)
      if (w.pairing) gate.same("fig4", main.pairing, plain.pairing)(
        r => (s"${r.region}/${r.model}", Seq(r.nsReal, r.nsRand, r.sigmaRand, r.z)))
      else {
        val (a, b) = (main.corpus, plain.corpus)
        gate.same("table1", a.table1, b.table1)(r => (r.region, Seq(r.recipes.toDouble, r.ingredients.toDouble)))
        gate.same("fig2", a.fig2.sortBy(r => (r.region, r.category)), b.fig2.sortBy(r => (r.region, r.category)))(
          r => (s"${r.region}/${r.category}", Seq(r.share)))
        gate.same("fig3 sizes", a.sizes.sortBy(_.region), b.sizes.sortBy(_.region))(
          r => (r.region, Seq(r.meanSize, r.maxSize.toDouble)))
        gate.same("fig3 slopes", a.slopes.sortBy(_._1), b.slopes.sortBy(_._1))(r => (r._1, Seq(r._2)))
        gate.same("fig3 histogram", a.histogram, b.histogram)(r => (r._1.toString, Seq(r._2.toDouble)))
        gate.same("fig5", a.fig5, b.fig5)(
          r => (s"${r.region}/${r.rank}/${r.ingredient}", Seq(r.chi, r.freq.toDouble, r.popularityRank.toDouble)))
      }
      layers.counts(traced, w.pairing)
      counters.drain(sc)
      metrics ++= TraceReport.perLayer(tracer, counters, sessionS, main.gcSetup.toSeq, main.gcArtifact.toSeq)
      metrics("trace.total_s") = (main.total, "s")
      metrics("trace.untraced_total_s") = (plain.total, "s")
      metrics("trace.overhead_s") = (main.total - plain.total, "s")
    }
    val liveHeapMb = Jvm.liveHeapMb
    if (!trace) {
      metrics("setup_s") = (median(main.setup), "s")
      metrics("artifact_s") = (median(main.artifact), "s")
      metrics("total_s") = (main.total, "s")
      metrics("live_heap_mb") = (liveHeapMb, "MB")
    }

    // Human-readable summary, then the record of the run.
    def line(name: String, xs: Iterable[Double]): Unit =
      if (xs.nonEmpty) println(f"  $name%-10s ${median(xs)}%9.4f s  (median of ${xs.map(x => f"$x%.3f").mkString(", ")})")
    println(s"workload ${w.name}: scale ${w.scale}, n_rand ${w.nRand}, regions ${w.regions.mkString(",")}, " +
            s"seeds $corpusSeed/$sampleSeed, trace $trace")
    line("setup_s", main.setup)
    line("fig4_s", main.fig4)
    line("stats_s", main.stats)
    line("fig5_s", main.fig5)
    line("artifact_s", main.artifact)
    println(f"  total_s    ${main.total}%9.4f s")
    println(f"  live_heap  ${liveHeapMb}%9.1f MB")
    println(s"  operations attempted ${gate.attempted}, failed ${gate.failed}")
    gate.problems.foreach(m => println(s"  FAILED $m"))

    if (writeRef) {
      val entries = if (w.pairing) Gate.pairingEntries(main.pairing) else Gate.corpusEntries(main.corpus)
      Reference.write(refPath, w.name, entries)
      println(s"wrote ${entries.size} reference values for ${w.name} to $refPath")
    }

    val result = mutable.LinkedHashMap[String, Any](
      "correct" -> (gate.failed == 0), "attempted" -> gate.attempted, "failed" -> gate.failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) },
    )
    val record = mutable.LinkedHashMap[String, Any](
      "meta" -> meta, "result" -> result,
      "samples" -> mutable.LinkedHashMap("setup_s" -> main.setup, "artifact_s" -> main.artifact,
        "fig4_s" -> main.fig4, "stats_s" -> main.stats, "fig5_s" -> main.fig5,
        "gc_setup_s" -> main.gcSetup, "gc_artifact_s" -> main.gcArtifact),
      "problems" -> gate.problems,
      "spans" -> tracer.spans.map(s => mutable.LinkedHashMap("id" -> s.id, "name" -> s.name,
        "parent" -> s.parent, "start_ns" -> s.startNs, "end_ns" -> s.endNs, "self_ns" -> s.selfNs)),
    )
    Files.createDirectories(out.toAbsolutePath.getParent)
    Files.write(out, (Json(record) + "\n").getBytes(UTF_8))
    spark.stop()
    sys.exit(if (gate.failed == 0) 0 else 1)
  }

  def median(xs: Iterable[Double]): Double = {
    val s = xs.toVector.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    sys.exit(2)
  }
}

/** Minimal JSON writer for maps, sequences, strings, numbers and booleans. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case m: collection.Map[_, _] => m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case other => quote(other.toString)
  }
  private def quote(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""
}
