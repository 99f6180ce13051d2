package repro.exp

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions.col
import org.scalatest.funsuite.AnyFunSuite

import repro.{SparkSpec, TestPipeline}
import repro.core.RandomModels
import repro.data.Regions
import repro.pipeline.Pipeline
import repro.stats.CuisineStats

/** Harness-level tests on the small-scale pipeline: the planted pairing
  * patterns must already be recoverable at reduced scale.
  */
class ExperimentsSpec extends AnyFunSuite with SparkSpec {

  private lazy val p = TestPipeline.get(spark)
  private lazy val pairing =
    Experiments.foodPairing(p, nRand = 1500, regions = Vector("ITA", "AFR", "SCND", "JPN"))
  private lazy val contributors =
    Experiments.topContributors(p, Experiments.observedSigns(pairing), k = 3)
  private lazy val table1 = Experiments.table1(p)
  private lazy val composition = Experiments.categoryComposition(p)
  private lazy val sizes = Experiments.meanSizes(p)
  private lazy val hist = Experiments.worldSizeHistogram(p)

  test("table1 returns all 22 regions plus WORLD in paper order") {
    assert(table1.size == 23)
    assert(table1.map(_.region) == Experiments.Table1Order :+ "WORLD")
  }

  test("table1 rejects a corpus missing a region, naming it") {
    val noKor = p.copy(recipes = p.recipes.filter(col("region") =!= "KOR"))
    val e = intercept[IllegalArgumentException](Experiments.table1(noKor))
    assert(e.getMessage.contains("KOR"))
  }

  /** Table 1, Fig 2, Fig 3 and Fig 5's entry points on `q`. */
  private def corpusArtifacts(q: Pipeline) =
    (Experiments.table1(q), Experiments.categoryComposition(q), Experiments.meanSizes(q),
     Experiments.popularitySlopes(q), Experiments.worldSizeHistogram(q),
     Experiments.topContributors(q, Regions.all.map(r => r.code -> r.zSign).toMap))

  test("the corpus entry points run one Spark job on a fresh pipeline, and none on a second round") {
    p.recipes.count() // the cached table exists before the count starts
    val fresh = p.copy()
    assert(fresh.productArity == 9, "corpus is a member, not a constructor field")
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    def round() = {
      TestListenerBus.drain(spark.sparkContext)
      jobs.set(0)
      val rows = corpusArtifacts(fresh)
      TestListenerBus.drain(spark.sparkContext)
      (jobs.get, rows)
    }
    spark.sparkContext.addSparkListener(listener)
    try {
      val (first, rowsA) = round()
      val (second, rowsB) = round()
      assert(first == 1 && second == 0, s"jobs: $first, then $second")
      assert(rowsA == rowsB)
      assert(rowsA == corpusArtifacts(p))
    } finally spark.sparkContext.removeSparkListener(listener)
  }

  test("a copy made after the original was used collects its own rows") {
    val used = p.copy()
    Experiments.table1(used)
    val noKor = used.copy(recipes = used.recipes.filter(col("region") =!= "KOR"))
    val e = intercept[IllegalArgumentException](Experiments.table1(noKor))
    assert(e.getMessage.contains("KOR"))
    assert(Experiments.table1(used).exists(_.region == "KOR"))
  }

  test("topContributors returns no UNREG row, even with a sign for UNREG") {
    assert(p.recipes.filter(col("region") === CuisineStats.Unregioned).count() > 0)
    val rows = Experiments.topContributors(p, Map(CuisineStats.Unregioned -> 1, "ITA" -> 1))
    assert(rows.map(_.region).distinct == Vector("ITA"))
  }

  test("foodPairing rejects nRand below 1, naming nRand") {
    for (n <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](Experiments.foodPairing(p, nRand = n, regions = Vector("KOR")))
      assert(e.getMessage.contains("nRand"), e.getMessage)
    }
  }

  test("foodPairing emits one row per (region, model)") {
    assert(pairing.size == 4 * 4)
    assert(pairing.map(r => (r.region, r.model)).distinct.size == 16)
  }

  test("planted positive regions show positive Z against random") {
    for (r <- pairing if r.model == "random" && Regions.byCode(r.region).zSign > 0)
      assert(r.z > 3, s"${r.region} z=${r.z}")
  }

  test("planted negative regions show negative Z against random") {
    for (r <- pairing if r.model == "random" && Regions.byCode(r.region).zSign < 0)
      assert(r.z < -3, s"${r.region} z=${r.z}")
  }

  test("frequency model reproduces pairing: |Z_freq| well below |Z_random|") {
    for (region <- Seq("ITA", "AFR", "SCND", "JPN")) {
      val zRand = pairing.find(r => r.region == region && r.model == "random").get.z
      val zFreq = pairing.find(r => r.region == region && r.model == "frequency").get.z
      assert(math.abs(zFreq) < 0.5 * math.abs(zRand),
             f"$region zRand=$zRand%.1f zFreq=$zFreq%.1f")
    }
  }

  test("category model fails to reproduce pairing: |Z_cat| stays large") {
    for (region <- Seq("ITA", "AFR", "SCND", "JPN")) {
      val zRand = pairing.find(r => r.region == region && r.model == "random").get.z
      val zCat = pairing.find(r => r.region == region && r.model == "category").get.z
      // (the threshold is looser than at full scale — small pools blur the
      // category/flavor-class orthogonality; FoodPairingBench asserts the
      // full-scale version of this claim)
      assert(math.abs(zCat) > 0.25 * math.abs(zRand),
             f"$region zRand=$zRand%.1f zCat=$zCat%.1f")
      assert(zCat * zRand > 0, s"$region: category model flipped the sign")
    }
  }

  test("foodPairing rejects a region with no scored recipes, naming it") {
    val e = intercept[IllegalArgumentException](
      Experiments.foodPairing(p, nRand = 10, regions = Vector("XYZ")))
    assert(e.getMessage.contains("XYZ"))
  }

  test("random-model N_s^rand is within 4 SE of the exact mean pair overlap in all 22 regions") {
    // Every pair of a Random-model recipe is a uniform distinct pair of the
    // cuisine's ingredients, so E[N_s^rand] is their mean overlap W̄.
    val ingredients = Experiments.regionalRecipes(p).select("region", "ing_id").distinct()
      .collect().groupBy(_.getString(0)).map { case (region, rs) => region -> rs.map(_.getInt(1)) }
    val rows = Experiments.foodPairing(p, nRand = 1000).filter(_.model == "random")
    assert(rows.size == 22)
    for (r <- rows) {
      val ids = ingredients(r.region)
      val pairs = for (a <- ids.indices; b <- a + 1 until ids.length) yield p.universe.sharedCount(ids(a), ids(b))
      val wBar = pairs.map(_.toLong).sum.toDouble / pairs.size
      val se = r.sigmaRand / math.sqrt(r.nRand.toDouble)
      assert(math.abs(r.nsRand - wBar) < 4 * se, f"${r.region}: N_s^rand ${r.nsRand}%.4f, W̄ $wBar%.4f, SE $se%.4f")
    }
  }

  /** `f` on the test corpus under `partitions` shuffle partitions. The
    * recipes arrive hash-partitioned by recipe under each setting, so the
    * order of the collected rows changes along with every shuffle.
    */
  private def withPartitions[A](partitions: String)(f: Pipeline => A): A = {
    val before = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", partitions)
    try f(p.copy(recipes = p.recipes.repartition(col("recipe_id"))))
    finally spark.conf.set("spark.sql.shuffle.partitions", before)
  }

  test("foodPairing and topContributors do not depend on the shuffle partition count") {
    def run(partitions: String) = withPartitions(partitions) { q =>
      val fig4 = Experiments.foodPairing(q, nRand = 200)
      (fig4, Experiments.topContributors(q, Experiments.observedSigns(fig4)))
    }
    val (fig4A, topA) = run("64")
    val (fig4B, topB) = run("5")
    assert(fig4A.map(r => (r.region, r.nsReal)) == fig4B.map(r => (r.region, r.nsReal)))
    // The category models take each template's category order from Spark's
    // row order (RandomModels.profile), so only these two cells compare.
    val uniform = Set("random", "frequency")
    assert(fig4A.filter(r => uniform(r.model)) == fig4B.filter(r => uniform(r.model)))
    assert(topA == topB)
  }

  test("the corpus statistics do not depend on the shuffle partition count") {
    def run(partitions: String) = withPartitions(partitions) { q =>
      (Experiments.table1(q), Experiments.categoryComposition(q), Experiments.meanSizes(q),
       Experiments.popularitySlopes(q), Experiments.worldSizeHistogram(q))
    }
    assert(run("64") == run("5"))
  }

  test("the rows foodPairing collects give every region's RandomModels.profile") {
    val regional = Experiments.regionalRecipes(p)
    for (region <- Experiments.Table1Order) {
      val got = RandomModels.profile(region, Experiments.cuisineRows(p, region))
      val want = RandomModels.profile(spark, region, regional, p.ingredients)
      assert(got.region == want.region)
      assert(got.ingredients.toSeq == want.ingredients.toSeq, region)
      assert(got.frequencies.toSeq == want.frequencies.toSeq, region)
      assert(got.categories.toSeq == want.categories.toSeq, region)
      assert(got.recipeSizes.toSeq == want.recipeSizes.toSeq, region)
      assert(got.recipeCategories.map(_.toSeq).toSeq == want.recipeCategories.map(_.toSeq).toSeq, region)
    }
  }

  test("foodPairing names a region with no recipe of 2 ingredients") {
    val ing = p.recipes.filter(col("region") === "KOR").select("ing_id").head().getInt(0)
    // Every KOR recipe keeps at most this one ingredient.
    val single = p.copy(recipes = p.recipes.filter(col("region") =!= "KOR" || col("ing_id") === ing))
    val e = intercept[IllegalArgumentException](Experiments.foodPairing(single, nRand = 10, regions = Vector("KOR")))
    assert(e.getMessage.contains("region KOR has no recipe with 2 ingredients"))
  }

  test("observedSigns extracts the sign of the random-model Z") {
    val signs = Experiments.observedSigns(pairing)
    assert(signs("ITA") == 1 && signs("AFR") == 1)
    assert(signs("SCND") == -1 && signs("JPN") == -1)
  }

  test("topContributors returns k rows per requested region") {
    for (region <- Experiments.observedSigns(pairing).keys)
      assert(contributors.count(_.region == region) == 3, region)
    assert(contributors.forall(r => r.rank >= 1 && r.rank <= 3))
  }

  test("top contributors are popular ingredients (the paper's key factor)") {
    // Popularity drives pairing, so top contributors sit in the popular
    // half of the ranking.
    for (r <- contributors)
      assert(r.popularityRank <= 40, s"${r.region}/${r.ingredient} popRank=${r.popularityRank}")
  }

  test("meanSizes includes WORLD and stays near nine") {
    val world = sizes.find(_.region == "WORLD")
    assert(world.isDefined)
    assert(world.get.meanSize > 7.5 && world.get.meanSize < 10.5)
  }

  test("worldSizeHistogram sums to the corpus size") {
    assert(hist.map(_._2).sum == p.groundTruth.size)
  }

  test("categoryComposition covers every region") {
    val regions = composition.map(_.region).toSet
    assert(Experiments.Table1Order.forall(regions.contains))
    assert(regions.contains("WORLD"))
  }

  test("fmtTable aligns columns and separates header") {
    val s = Experiments.fmtTable(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = s.split('\n')
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.length == 1)
    assert(lines(1).forall(c => c == '-' || c == '|'))
  }

  /** Each table of a rendered artifact as (header line, body lines). */
  private def tablesOf(rendered: String): Vector[(String, Vector[String])] = {
    val lines = rendered.split('\n').toVector
    val seps = lines.indices.filter(i => lines(i).nonEmpty && lines(i).forall(c => c == '-' || c == '|'))
    seps.zipWithIndex.map { case (sep, k) =>
      val end = if (k + 1 < seps.size) seps(k + 1) - 1 else lines.size
      lines(sep - 1) -> lines.slice(sep + 1, end).takeWhile(_.startsWith("|"))
    }.toVector
  }

  private def firstCells(body: Vector[String]): Vector[String] = body.map(_.split('|')(1).trim)

  private val regionsAndWorld = Experiments.Table1Order :+ "WORLD"

  test("renderTable1 prints the paper's counts beside one line per region") {
    val Vector((header, body)) = tablesOf(Experiments.renderTable1(table1))
    assert(header.contains("Recipes(paper)") && header.contains("Ingredients(ours)"))
    assert(firstCells(body) == regionsAndWorld)
  }

  test("renderFig2 prints one line per region and WORLD, not UNREG") {
    val Vector((header, body)) = tablesOf(Experiments.renderFig2(composition))
    assert(header.startsWith("| Region"))
    assert(firstCells(body) == regionsAndWorld)
  }

  test("renderFig3 prints the size histogram with P(n), then sizes and slopes per region") {
    val slopes = Experiments.popularitySlopes(p)
    val Vector((hHist, bHist), (hSize, bSize), (hSlope, bSlope)) =
      tablesOf(Experiments.renderFig3(hist, sizes, slopes))
    assert(hHist.contains("P(n)") && firstCells(bHist) == hist.map(_._1.toString))
    assert(hSize.contains("MeanSize") && firstCells(bSize) == regionsAndWorld)
    assert(hSlope.contains("Slope") && firstCells(bSlope) == Experiments.Table1Order)
  }

  test("renderFig4 prints the paper sign and one Z per null model for each scored region") {
    val Vector((header, body)) = tablesOf(Experiments.renderFig4(pairing, 1500))
    assert(header.contains("PaperSign"))
    for (m <- RandomModels.AllModels) assert(header.contains(s"Z_${m.name}"), m.name)
    assert(firstCells(body) == Vector("AFR", "ITA", "JPN", "SCND"))
  }

  test("renderFig5 prints one line per contributor with its region's sign") {
    val signs = Experiments.observedSigns(pairing)
    val Vector((header, body)) = tablesOf(Experiments.renderFig5(contributors, signs))
    assert(header.contains("Sign") && header.contains("PopRank"))
    assert(firstCells(body) == contributors.map(_.region))
    assert(body.map(_.split('|')(2).trim) == contributors.map(r => if (signs(r.region) > 0) "+" else "-"))
  }
}
