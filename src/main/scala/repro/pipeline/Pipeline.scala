package repro.pipeline

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.data.{CuisineGen, PhraseGen, RecipeRow}
import repro.flavor.{FlavorGen, FlavorTables, FlavorUniverse}
import repro.ingest.Aliaser

/** End-to-end data pipeline: flavor universe → synthetic corpus → raw
  * phrases → aliasing → the analysis-ready recipe table, plus the derived
  * flavor tables. Instances are cached per (session, scale, seed) so every
  * test suite and bench reuses the same cached DataFrames, and a pipeline's
  * frames always belong to the session that asked for them.
  */
final case class Pipeline(
    spark: SparkSession,
    scale: Double,
    universe: FlavorUniverse,
    groundTruth: Vector[RecipeRow],
    /** (region, recipe_id, slot, phrase) — the raw CulinaryDB-lite rows. */
    phrases: DataFrame,
    /** (region, recipe_id, ing_id) after aliasing — what the analysis consumes. */
    recipes: DataFrame,
    /** (ing_id, name, category, is_compound, is_core) */
    ingredients: DataFrame,
    /** (ing_id, molecule) including pooled compound profiles. */
    profiles: DataFrame,
    /** (ing_a, ing_b, shared) with ing_a < ing_b; zero-overlap pairs absent.
      * Read off `universe.overlap`, the overlap the kernels score with.
      */
    pairShared: DataFrame,
)

object Pipeline {

  private val cache = mutable.HashMap.empty[(SparkSession, Double, Long), Pipeline]

  /** Build (or fetch the cached) pipeline at a given corpus scale. */
  def get(spark: SparkSession, scale: Double = 1.0, seed: Long = 7L): Pipeline =
    cache.synchronized {
      cache.getOrElseUpdate((spark, scale, seed), build(spark, scale, seed))
    }

  def build(spark: SparkSession, scale: Double, seed: Long): Pipeline = {
    import spark.implicits._
    val universe = FlavorGen.universe()
    val rows = CuisineGen.generate(universe, scale, seed)

    val phraseRows: Seq[(String, Long, Int, String)] = rows.flatMap { r =>
      PhraseGen.phrases(universe, r).map { case (slot, p) => (r.region, r.recipeId, slot, p) }
    }
    val phrases = phraseRows.toDF("region", "recipe_id", "slot", "phrase")
      .repartition(spark.sparkContext.defaultParallelism)
      .cache()

    val recipes = Aliaser.aliasedRecipes(spark, universe, phrases).cache()

    val ingredients = FlavorTables.ingredients(spark, universe).cache()
    val profiles = FlavorTables.profiles(spark, universe).cache()
    val pairShared = FlavorTables.pairShared(spark, universe).cache()

    Pipeline(spark, scale, universe, rows, phrases, recipes,
             ingredients, profiles, pairShared)
  }
}
