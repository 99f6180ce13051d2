package repro.exp

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.core.{PairingKernel, RandomModels, ZScore}
import repro.data.Regions
import repro.flavor.FlavorGen
import repro.pipeline.Pipeline
import repro.stats.{CorpusKernel, CuisineStats}

/** Harness logic shared by the spark-submit main (jobs/Reproduce) and the
  * bench suites (bench/): each paper table/figure has one entry point
  * returning plain rows for assertion, and one renderer that prints them.
  */
object Experiments {

  /** Paper Table-1 row order (alphabetical by region name, as printed). */
  val Table1Order: Vector[String] = Vector(
    "AFR", "ANZ", "BRI", "CAN", "CBN", "CHN", "DACH", "EE", "FRA", "GRC",
    "INSC", "ITA", "JPN", "KOR", "MEX", "ME", "SCND", "SAM", "SEA", "ESP",
    "THA", "USA",
  )

  /** The analysis-ready recipe table restricted to the 22 true regions. */
  def regionalRecipes(p: Pipeline): DataFrame =
    p.recipes.filter(col("region") =!= CuisineStats.Unregioned)

  // ── Table 1 ────────────────────────────────────────────────────────────

  final case class Table1Row(region: String, recipes: Long, ingredients: Long)

  def table1(p: Pipeline): Vector[Table1Row] = {
    val rows = p.corpus.table1.map { case (r, n, m) => r -> Table1Row(r, n, m) }.toMap
    val order = Table1Order :+ CuisineStats.World
    val missing = order.filterNot(rows.contains)
    require(missing.isEmpty, s"Table 1 has no rows for ${missing.mkString(", ")}")
    order.map(rows)
  }

  // ── Fig 2: category composition ────────────────────────────────────────

  final case class CategoryRow(region: String, category: String, share: Double)

  def categoryComposition(p: Pipeline): Vector[CategoryRow] =
    p.corpus.categoryComposition(id => p.universe.byId.get(id).map(_.category))
      .map { case (r, c, share) => CategoryRow(r, c, share) }

  // ── Fig 3: recipe sizes and popularity ────────────────────────────────

  final case class SizeRow(region: String, meanSize: Double, maxSize: Int)

  def meanSizes(p: Pipeline): Vector[SizeRow] =
    p.corpus.meanSizes.map { case (r, mean, max) => SizeRow(r, mean, max) }

  def popularitySlopes(p: Pipeline): Vector[(String, Double)] =
    p.corpus.popularitySlopes

  /** World recipe-size histogram (n → count). */
  def worldSizeHistogram(p: Pipeline): Vector[(Int, Long)] =
    p.corpus.sizeHistogram

  // ── Fig 4: food pairing Z-scores ──────────────────────────────────────

  /** Random recipes per null model and cuisine (paper, Methodology IV.B). */
  val PaperNRand: Int = 100000

  final case class PairingRow(region: String, model: String, nsReal: Double,
                              nsRand: Double, sigmaRand: Double, nRand: Long,
                              z: Double)

  /** Compute Z for every (region, null model). One Spark job per region
    * collects its distinct recipe rows (see `cuisineRows`); they give both
    * the real N_s^C and the null models' profile. The real and the sampled
    * cuisines are scored on the Spark driver by [[PairingKernel]] over the
    * universe's overlap matrix, one sampled cuisine at a time.
    */
  def foodPairing(p: Pipeline, nRand: Int, seed: Long = 11L,
                  regions: Vector[String] = Table1Order): Vector[PairingRow] = {
    require(nRand >= 1, s"nRand must be at least 1, not $nRand")
    val kernel = PairingKernel(p.universe)
    val out = Vector.newBuilder[PairingRow]
    for (region <- regions) {
      val rows = cuisineRows(p, region)
      val real = kernel.cuisine(PairingKernel.recipes(rows.map { case (recipe, ing, _) => (region, recipe, ing) }))
      require(real.isDefined, s"region $region has no recipe with 2 ingredients")
      val nsReal = real.get.ns
      val prof = RandomModels.profile(region, rows)
      for (model <- RandomModels.AllModels) {
        val cs = kernel.cuisine(RandomModels.sample(prof, model, nRand, seed))
        require(cs.isDefined, s"$region@${model.name}: no sampled recipe has 2 ingredients")
        val PairingKernel.CuisineScore(nsRand, sigma, n) = cs.get
        out += PairingRow(region, model.name, nsReal, nsRand, sigma, n,
                          ZScore.z(nsReal, nsRand, sigma, n))
      }
    }
    out.result()
  }

  /** One regional cuisine's distinct (recipe_id, ing_id, category) rows,
    * each category read off the universe. They come in the order
    * `RandomModels.profile(spark, region, regionalRecipes(p), p.ingredients)`
    * collects them, which the category models' templates keep.
    */
  private[exp] def cuisineRows(p: Pipeline, region: String): Seq[(Long, Int, String)] =
    RandomModels.distinctRows(regionalRecipes(p), region).collect().toSeq
      .map { r => val ing = r.getInt(1); (r.getLong(0), ing, p.universe.byId(ing).category) }

  /** Observed pairing sign per region from the Random-model Z. */
  def observedSigns(rows: Vector[PairingRow]): Map[String, Int] =
    rows.filter(_.model == RandomModels.RandomUniform.name)
      .map(r => r.region -> (if (r.z >= 0) 1 else -1)).toMap

  // ── Fig 5: top contributing ingredients ───────────────────────────────

  final case class ContributorRow(region: String, rank: Int, ingredient: String,
                                  chi: Double, freq: Long, popularityRank: Int)

  def topContributors(p: Pipeline, signs: Map[String, Int], k: Int = 3): Vector[ContributorRow] = {
    val kernel = PairingKernel(p.universe)
    (for {
      (region, recipes) <- p.corpus.recipes.toVector if region != CuisineStats.Unregioned && signs.contains(region)
      popRank            = p.corpus.popularity(region).map(q => q.ingId -> q.rank).toMap
      (c, i)            <- CorpusKernel.top(kernel.chi(recipes), signs(region), k).zipWithIndex
    } yield {
      val name = p.universe.byId(c.ingId).name
      require(c.chi.isDefined, s"$region: contributor $name has no chi")
      ContributorRow(region, i + 1, name, c.chi.get, c.freq, popRank(c.ingId))
    }).sortBy(r => (r.region, r.rank))
  }

  // ── rendering: one table per artifact ─────────────────────────────────

  def renderTable1(rows: Vector[Table1Row]): String =
    "=== TABLE 1: Statistics of recipes and ingredients across world cuisines ===\n" +
    fmtTable(
      Seq("Region", "Recipes(paper)", "Recipes(ours)", "Ingredients(paper)", "Ingredients(ours)"),
      rows.map { r =>
        val paper = Regions.byCode.get(r.region)
        Seq(r.region, paper.fold(Regions.worldRecipes)(_.recipes).toString, r.recipes.toString,
            paper.fold("-")(_.ingredients.toString), r.ingredients.toString)
      })

  def renderFig2(rows: Vector[CategoryRow]): String = {
    val shares = rows.groupBy(_.region).view.mapValues(_.map(c => c.category -> c.share).toMap).toMap
    val cats = FlavorGen.Categories
    "=== FIG 2: Compositions of recipes in terms of ingredient categories (% of slots) ===\n" +
    fmtTable(
      "Region" +: cats.map(_.take(9)),
      paperOrder(shares.contains).map(reg =>
        reg +: cats.map(c => f"${shares(reg).getOrElse(c, 0.0) * 100}%.1f")))
  }

  def renderFig3(hist: Vector[(Int, Long)], sizes: Vector[SizeRow],
                 slopes: Vector[(String, Double)]): String = {
    val total = hist.map(_._2).sum.toDouble
    val size = sizes.map(s => s.region -> s).toMap
    val slope = slopes.toMap
    Seq(
      "=== FIG 3a: WORLD recipe-size distribution ===",
      fmtTable(Seq("n", "recipes", "P(n)"),
               hist.map { case (n, c) => Seq(n.toString, c.toString, f"${c / total}%.4f") }),
      fmtTable(Seq("Region", "MeanSize", "MaxSize"),
               paperOrder(size.contains).map(r => Seq(r, f"${size(r).meanSize}%.2f", size(r).maxSize.toString))),
      "=== FIG 3b: popularity rank-frequency log-log slope per region ===",
      fmtTable(Seq("Region", "Slope"), paperOrder(slope.contains).map(r => Seq(r, f"${slope(r)}%.3f"))),
    ).mkString("\n")
  }

  /** Fig 4 for the regions `rows` covers; `nRand` is the number of random
    * recipes each null model drew.
    */
  def renderFig4(rows: Vector[PairingRow], nRand: Int): String = {
    val cell = rows.map(r => (r.region, r.model) -> r).toMap
    val random = RandomModels.RandomUniform.name
    s"=== FIG 4: food pairing Z-scores (n_rand = $nRand per null model) ===\n" +
    fmtTable(
      Seq("Region", "PaperSign", "Ns_real", "Ns_rand") ++ RandomModels.AllModels.map("Z_" + _.name),
      paperOrder(reg => cell.contains((reg, random))).map { reg =>
        Seq(reg, sign(Regions.byCode(reg).zSign), f"${cell((reg, random)).nsReal}%.3f",
            f"${cell((reg, random)).nsRand}%.3f") ++
          RandomModels.AllModels.map(m => f"${cell((reg, m.name)).z}%8.1f")
      })
  }

  /** Fig 5 with the pairing sign per region that ranked the contributors. */
  def renderFig5(rows: Vector[ContributorRow], signs: Map[String, Int]): String =
    "=== FIG 5: top-3 ingredients contributing to the observed food pairing ===\n" +
    fmtTable(
      Seq("Region", "Sign", "Rank", "Ingredient", "Chi(%)", "Freq", "PopRank"),
      rows.map(r => Seq(r.region, sign(signs(r.region)), r.rank.toString, r.ingredient,
                        f"${r.chi}%.3f", r.freq.toString, r.popularityRank.toString)))

  /** Table 1 order, then WORLD, keeping the regions that have rows. */
  private def paperOrder(hasRows: String => Boolean): Vector[String] =
    (Table1Order :+ CuisineStats.World).filter(hasRows)

  private def sign(s: Int): String = if (s > 0) "+" else "-"

  /** Fixed-width ASCII table (printed by every renderer). */
  def fmtTable(headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]) =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(headers) +: sep +: rows.map(line)).mkString("\n")
  }
}
