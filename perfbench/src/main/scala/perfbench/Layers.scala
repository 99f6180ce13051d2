package perfbench

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Contribution, FoodPairing, RandomModels, ZScore}
import repro.data.{CuisineGen, PhraseGen}
import repro.exp.Experiments
import repro.exp.Experiments._
import repro.flavor.{FlavorGen, FlavorTables}
import repro.ingest.Aliaser
import repro.pipeline.Pipeline
import repro.stats.CuisineStats

/** The traced run: `Pipeline.build`, `Experiments.foodPairing` and the
  * corpus artifacts re-enacted as direct calls into the layer functions,
  * each DataFrame forced with an action at its span boundary.
  *
  * Every call here must mirror the public entry point it replaces; the run
  * compares both results and counts any difference as a failed operation.
  * A layer function that disappears breaks the benchmark's build.
  */
final class Layers(spark: SparkSession, t: Tracer) {
  import spark.implicits._

  /** Re-enacted `Pipeline.build` plus materialisation of its frames. */
  def setup(scale: Double, seed: Long): Pipeline = {
    val universe = t.span("flavor.universe") { FlavorGen.universe() }
    val rows = t.span("data.generate") { CuisineGen.generate(universe, scale, seed) }
    t.count("data.recipes", rows.size)
    val phraseRows = t.span("data.phrases") {
      rows.flatMap { r =>
        PhraseGen.phrases(universe, r).map { case (slot, p) => (r.region, r.recipeId, slot, p) }
      }
    }
    t.count("data.phrases", phraseRows.size)
    val phrases = t.span("pipeline.phrases_df") {
      val df = phraseRows.toDF("region", "recipe_id", "slot", "phrase")
        .repartition(spark.sparkContext.defaultParallelism).cache()
      df.count(); df
    }
    val recipes = t.span("ingest.alias") {
      val df = Aliaser.aliasedRecipes(spark, universe, phrases).cache()
      df.count(); df
    }
    val (ingredients, profiles) = t.span("flavor.profiles") {
      val i = FlavorTables.ingredients(spark, universe).cache()
      val p = FlavorTables.profiles(spark, universe).cache()
      i.count(); p.count(); (i, p)
    }
    val pairShared = t.span("flavor.pair_shared") {
      val df = FlavorTables.pairShared(profiles).cache()
      val n = df.count()
      t.count("flavor.pair_shared_rows", n)
      t.count("flavor.pair_density", n / (universe.size * (universe.size - 1) / 2.0))
      df
    }
    Pipeline(spark, scale, universe, rows, phrases, recipes, ingredients, profiles, pairShared)
  }

  /** Re-enacted `Experiments.foodPairing`. */
  def fig4(p: Pipeline, nRand: Int, seed: Long, regions: Vector[String]): Vector[PairingRow] =
    t.span("fig4") {
      val regional = Experiments.regionalRecipes(p)
      val realNs = t.span("pairing.real_score") {
        val rows = FoodPairing.cuisineScores(FoodPairing.recipeScores(spark, regional, p.pairShared)).collect()
        t.count("pairing.real_recipes", rows.map(_.getLong(3)).sum)
        rows.map(r => r.getString(0) -> r.getDouble(1)).toMap
      }
      val out = Vector.newBuilder[PairingRow]
      for (region <- regions) {
        val prof = t.span("nullmodel.profile") { RandomModels.profile(spark, region, regional, p.ingredients) }
        t.count("nullmodel.profile_rows", prof.recipeSizes.map(_.toLong).sum)
        for (model <- RandomModels.AllModels) t.span("pairing.cell") {
          val sampled = t.span("nullmodel.sample") { RandomModels.sampleRows(prof, model, nRand, seed) }
          t.count("nullmodel.sampled_rows", sampled.size)
          t.count("pairing.null_pairs", pairsIn(sampled))
          val cs = t.span("pairing.null_score") {
            val df = sampled.toDF("region", "recipe_id", "ing_id")
            FoodPairing.cuisineScores(FoodPairing.recipeScores(spark, df, p.pairShared)).collect()(0)
          }
          val nsRand = cs.getDouble(1); val sigma = cs.getDouble(2); val n = cs.getLong(3)
          out += PairingRow(region, model.name, realNs(region), nsRand, sigma, n,
                            ZScore.z(realNs(region), nsRand, sigma, n))
        }
      }
      t.count("pairing.cells", regions.size * RandomModels.AllModels.size)
      out.result()
    }

  /** Ingredient pairs in sampled (label, recipe, ingredient) rows, which
    * come grouped by recipe.
    */
  private def pairsIn(rows: Vector[(String, Long, Int)]): Long =
    rows.groupBy(_._2).valuesIterator.map { r => val n = r.size.toLong; n * (n - 1) / 2 }.sum

  /** Re-enacted Table 1, Fig 2, Fig 3 and Fig 5 (`Experiments` stats calls
    * and `topContributors`).
    */
  def corpus(p: Pipeline, signs: Map[String, Int]): CorpusResult = {
    val regional = Experiments.regionalRecipes(p)
    val (table1, fig2, sizes, slopes, histogram) = t.span("stats") {
      val table1 = t.span("stats.table1") {
        val rows = CuisineStats.table1(p.recipes).collect()
          .map(r => Table1Row(r.getString(0), r.getLong(1), r.getLong(2)))
          .map(r => r.region -> r).toMap
        (Experiments.Table1Order :+ CuisineStats.World).map(rows)
      }
      val fig2 = t.span("stats.fig2") {
        CuisineStats.categoryComposition(p.recipes, p.ingredients).collect()
          .map(r => CategoryRow(r.getString(0), r.getString(1), r.getDouble(3))).toVector
      }
      val (sizes, slopes, histogram) = t.span("stats.fig3") {
        val sizes = CuisineStats.meanRecipeSize(CuisineStats.withWorld(regional)).collect()
          .map(r => SizeRow(r.getString(0), r.getDouble(1), r.getInt(2))).toVector
        val slopes = CuisineStats.popularitySlope(regional).collect()
          .map(r => (r.getString(0), r.getDouble(1))).toVector
        val histogram = CuisineStats.sizeDistribution(p.recipes.withColumn("region", lit(CuisineStats.World)))
          .collect().map(r => (r.getInt(1), r.getLong(2))).sortBy(_._1).toVector
        (sizes, slopes, histogram)
      }
      (table1, fig2, sizes, slopes, histogram)
    }
    val fig5 = t.span("fig5") {
      val chi = t.span("contribution.chi") {
        val df = Contribution.chi(spark, regional, p.pairShared).cache()
        t.count("contribution.chi_rows", df.count())
        df
      }
      val top = t.span("contribution.top") {
        val pop = CuisineStats.popularity(regional)
          .select(col("region"), col("ing_id"), col("rank").as("pop_rank"))
        Contribution.topContributors(chi, signs.toSeq.toDF("region", "sign"), 3)
          .join(broadcast(p.ingredients.select("ing_id", "name")), "ing_id")
          .join(pop, Seq("region", "ing_id"))
          .select("region", "rank", "name", "chi", "freq", "pop_rank")
          .collect()
          .map((r: Row) => ContributorRow(r.getString(0), r.getInt(1), r.getString(2),
                                          r.getDouble(3), r.getLong(4), r.getInt(5)))
          .toVector
          .sortBy(r => (r.region, r.rank))
      }
      chi.unpersist(blocking = true)
      top
    }
    CorpusResult(table1, fig2, sizes, slopes, histogram, fig5)
  }

  /** Counts that need extra Spark jobs; run after the measured phases. */
  def counts(p: Pipeline, pairing: Boolean): Unit = t.span("counts") {
    val ids = Aliaser.alias(spark, p.universe, p.phrases).agg(
      count(lit(1)), sum(when(col("ing_id") >= 0, 1).otherwise(0)),
      sum(when(col("ing_id") === Aliaser.UnmatchedId, 1).otherwise(0)),
      sum(when(col("ing_id") === Aliaser.NoiseId, 1).otherwise(0))).collect()(0)
    t.count("ingest.phrases_in", ids.getLong(0))
    t.count("ingest.matched", ids.getLong(1))
    t.count("ingest.unmatched", ids.getLong(2))
    t.count("ingest.noise", ids.getLong(3))
    t.count("ingest.match_ratio", ids.getLong(1).toDouble / ids.getLong(0))
    if (pairing) {
      val pairs = Experiments.regionalRecipes(p).select("region", "recipe_id", "ing_id").distinct()
        .groupBy("region", "recipe_id").agg(count(lit(1)).as("n"))
        .filter(col("n") >= 2)
        .agg(sum(col("n") * (col("n") - 1) / 2)).collect()(0)
      t.count("pairing.real_pairs", pairs.getDouble(0))
    }
  }
}
