package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import repro.core.RandomModels
import repro.data.Regions
import repro.exp.Experiments
import repro.exp.Experiments._
import repro.stats.CuisineStats

/** Everything one corpus-workload iteration produces. */
final case class CorpusResult(
    table1: Vector[Table1Row],
    fig2: Vector[CategoryRow],
    sizes: Vector[SizeRow],
    slopes: Vector[(String, Double)],
    histogram: Vector[(Int, Long)],
    fig5: Vector[ContributorRow],
)

/** Reference values, one line per checked quantity:
  * `<workload> TAB <key> TAB <v1,v2,...>`, doubles in round-trip form.
  */
final class Reference(val lines: Map[(String, String), Vector[Double]]) {
  def get(workload: String, key: String): Option[Vector[Double]] = lines.get((workload, key))
  def has(workload: String): Boolean = lines.keys.exists(_._1 == workload)
}

object Reference {
  def load(path: Path): Reference =
    if (!Files.exists(path)) new Reference(Map.empty)
    else new Reference(Files.readAllLines(path, UTF_8).asScala.iterator
      .filter(l => l.nonEmpty && !l.startsWith("#"))
      .map { l =>
        val Array(w, k, vs) = l.split('\t')
        (w, k) -> vs.split(',').toVector.map(_.toDouble)
      }.toMap)

  /** Replaces the workload's lines in `path` by `entries`. */
  def write(path: Path, workload: String, entries: Seq[(String, Seq[Double])]): Unit = {
    val kept =
      if (Files.exists(path)) Files.readAllLines(path, UTF_8).asScala.filterNot(_.startsWith(workload + "\t"))
      else Seq.empty
    val added = entries.map { case (k, vs) => s"$workload\t$k\t${vs.map(_.toString).mkString(",")}" }
    Files.write(path, (kept ++ added).mkString("", "\n", "\n").getBytes(UTF_8))
  }
}

/** The correctness gate. Every checked unit of output is one operation; an
  * operation fails on an exception, a non-finite value, a wrong sign or
  * count, or a mismatch against the reference values. Table 1 counts, except
  * WORLD's ingredient count, do not depend on the corpus seed and are
  * checked on every run; the other reference values only when `exact` (the
  * default seeds).
  */
final class Gate(workload: String, ref: Reference, exact: Boolean) {
  var attempted = 0L
  var failed = 0L
  val problems = mutable.ArrayBuffer.empty[String]

  /** Runs one operation; `check` returns its problems (empty when correct). */
  def op(label: String)(check: => Seq[String]): Unit = {
    attempted += 1
    val found = try check catch { case e: Exception => Seq(s"exception $e") }
    if (found.nonEmpty) {
      failed += 1
      if (problems.size < 50) problems += s"$label: ${found.mkString("; ")}"
    }
  }

  private def finite(xs: (String, Double)*): Seq[String] =
    xs.collect { case (n, v) if v.isNaN || v.isInfinite => s"$n=$v not finite" }

  private def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  /** Compares against the reference when this run uses the default seeds. */
  private def matches(key: String, got: Double*): Seq[String] =
    if (exact) against(key, got) else Seq.empty

  private def against(key: String, got: Seq[Double]): Seq[String] = ref.get(workload, key) match {
    case None => Seq(s"no reference for $key")
    case Some(want) if want.size == got.size && want.zip(got).forall { case (w, g) => close(w, g) } =>
      Seq.empty
    case Some(want) => Seq(s"$key = ${got.mkString(",")}, reference ${want.mkString(",")}")
  }

  def pairing(rows: Vector[PairingRow], regions: Vector[String], nRand: Int): Unit = {
    val byCell = rows.groupBy(r => (r.region, r.model))
    for (region <- regions; model <- RandomModels.AllModels.map(_.name))
      op(s"fig4 $region/$model") {
        byCell.getOrElse((region, model), Vector.empty) match {
          case Vector(r) =>
            val sign =
              if (model == RandomModels.RandomUniform.name &&
                  math.signum(r.z) != Regions.byCode(region).zSign)
                Seq(s"Z=${r.z} has the wrong sign")
              else Seq.empty
            finite("ns_real" -> r.nsReal, "ns_rand" -> r.nsRand, "sigma_rand" -> r.sigmaRand, "z" -> r.z) ++
              (if (r.nRand != nRand) Seq(s"n_rand=${r.nRand}") else Seq.empty) ++ sign ++
              matches(s"fig4/$region/$model", r.nsReal, r.nsRand, r.sigmaRand, r.z)
          case found => Seq(s"${found.size} rows")
        }
      }
  }

  def corpus(c: CorpusResult): Unit = {
    val regionsAndWorld = Experiments.Table1Order :+ CuisineStats.World
    val t1 = c.table1.map(r => r.region -> r).toMap
    for (region <- regionsAndWorld) op(s"table1 $region") {
      t1.get(region) match {
        case Some(r) if ref.has(workload) =>
          // WORLD's ingredient count is the union of the seed-drawn pools.
          val got = Seq(r.recipes.toDouble, r.ingredients.toDouble)
          if (region != CuisineStats.World || exact) against(s"table1/$region", got)
          else ref.get(workload, s"table1/$region").filter(_.head == got.head).fold(
            Seq(s"WORLD recipes ${r.recipes}"))(_ => Seq.empty)
        case Some(_) => Seq.empty
        case None => Seq("missing")
      }
    }
    val shares = c.fig2.groupBy(_.region)
    for (region <- regionsAndWorld) op(s"fig2 $region") {
      val rows = shares.getOrElse(region, Vector.empty)
      val total = rows.map(_.share).sum
      (if (rows.isEmpty) Seq("missing") else Seq.empty) ++
        finite(rows.map(r => r.category -> r.share): _*) ++
        (if (math.abs(total - 1.0) > 1e-9) Seq(s"shares sum to $total") else Seq.empty) ++
        rows.sortBy(_.category).flatMap(r => matches(s"fig2/$region/${r.category}", r.share))
    }
    val sizes = c.sizes.map(r => r.region -> r).toMap
    val slopes = c.slopes.toMap
    for (region <- regionsAndWorld) op(s"fig3 $region") {
      sizes.get(region) match {
        case None => Seq("missing size row")
        case Some(s) =>
          val slope = if (region == CuisineStats.World) Seq.empty else slopes.get(region) match {
            case Some(v) if v < 0 => finite("slope" -> v) ++ matches(s"fig3/$region/slope", v)
            case other            => Seq(s"slope $other")
          }
          finite("mean_size" -> s.meanSize) ++
            (if (s.meanSize < 2 || s.meanSize > s.maxSize) Seq(s"mean size ${s.meanSize}") else Seq.empty) ++
            slope ++ matches(s"fig3/$region/size", s.meanSize, s.maxSize.toDouble)
      }
    }
    op("fig3 histogram") {
      val recipes = c.histogram.map(_._2).sum
      val world = t1.get(CuisineStats.World).map(_.recipes)
      (if (world.contains(recipes)) Seq.empty else Seq(s"histogram holds $recipes recipes, WORLD $world")) ++
        c.histogram.flatMap { case (n, k) => matches(s"fig3/histogram/$n", k.toDouble) }
    }
    val top = c.fig5.groupBy(_.region)
    for (region <- Experiments.Table1Order) op(s"fig5 $region") {
      val rows = top.getOrElse(region, Vector.empty).sortBy(_.rank)
      val sign = Regions.byCode(region).zSign
      if (rows.map(_.rank) != Vector(1, 2, 3)) Seq(s"ranks ${rows.map(_.rank)}")
      else finite(rows.map(r => s"chi${r.rank}" -> r.chi): _*) ++
        (if (rows.head.chi * sign < 0) Seq.empty else Seq(s"top-1 chi ${rows.head.chi} against sign $sign")) ++
        rows.flatMap(r => matches(s"fig5/$region/${r.rank}/${r.ingredient}", r.chi, r.freq.toDouble))
    }
  }

  /** Compares a re-enacted (traced) result with the public entry points'. */
  def same[A](label: String, traced: Vector[A], untraced: Vector[A])(values: A => (String, Seq[Double])): Unit =
    op(s"trace equals untraced: $label") {
      val a = traced.map(values); val b = untraced.map(values)
      if (a.map(_._1) != b.map(_._1)) Seq(s"keys differ")
      else a.zip(b).collect {
        case ((k, x), (_, y)) if x.size != y.size || !x.zip(y).forall { case (p, q) => close(p, q) } =>
          s"$k: ${x.mkString(",")} vs ${y.mkString(",")}"
      }
    }
}

object Gate {
  /** The reference entries an untraced run at the default seeds produces. */
  def pairingEntries(rows: Vector[PairingRow]): Seq[(String, Seq[Double])] =
    rows.map(r => s"fig4/${r.region}/${r.model}" -> Seq(r.nsReal, r.nsRand, r.sigmaRand, r.z))

  def corpusEntries(c: CorpusResult): Seq[(String, Seq[Double])] =
    c.table1.map(r => s"table1/${r.region}" -> Seq(r.recipes.toDouble, r.ingredients.toDouble)) ++
      c.fig2.sortBy(r => (r.region, r.category)).map(r => s"fig2/${r.region}/${r.category}" -> Seq(r.share)) ++
      c.sizes.sortBy(_.region).map(s => s"fig3/${s.region}/size" -> Seq(s.meanSize, s.maxSize.toDouble)) ++
      c.slopes.sortBy(_._1).map { case (r, v) => s"fig3/$r/slope" -> Seq(v) } ++
      c.histogram.map { case (n, k) => s"fig3/histogram/$n" -> Seq(k.toDouble) } ++
      c.fig5.map(r => s"fig5/${r.region}/${r.rank}/${r.ingredient}" -> Seq(r.chi, r.freq.toDouble))
}
