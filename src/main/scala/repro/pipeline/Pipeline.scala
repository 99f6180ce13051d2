package repro.pipeline

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.data.{CuisineGen, PhraseGen, RecipeRow}
import repro.flavor.{FlavorGen, FlavorTables, FlavorUniverse}
import repro.ingest.Aliaser
import repro.stats.CorpusKernel

/** End-to-end data pipeline: flavor universe → synthetic corpus → raw
  * phrases → aliasing → the analysis-ready recipe table, plus the derived
  * flavor tables. The corpus is generated on the driver; the phrases and
  * every table after them are made inside Spark tasks. Instances are cached
  * per (session, scale, seed) so every test suite and bench reuses the same
  * cached DataFrames, and a pipeline's frames always belong to the session
  * that asked for them.
  */
final case class Pipeline(
    spark: SparkSession,
    scale: Double,
    universe: FlavorUniverse,
    groundTruth: Vector[RecipeRow],
    /** (region, recipe_id, slot, phrase) — the raw CulinaryDB-lite rows,
      * one per ground-truth ingredient slot (see `Pipeline.phrases`).
      */
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
) {

  /** The recipe table collected on first use, with one Spark job, as the
    * [[CorpusKernel]] that Table 1 and Figs 2, 3 and 5 read. It is a member,
    * not a field: each instance, a `copy(recipes = …)` too, collects its own
    * `recipes`.
    */
  lazy val corpus: CorpusKernel = new CorpusKernel(
    recipes.select("region", "recipe_id", "ing_id").collect().map(r => (r.getString(0), r.getLong(1), r.getInt(2))))
}

object Pipeline {

  private val cache = mutable.HashMap.empty[(SparkSession, Double, Long), Pipeline]

  /** Build (or fetch the cached) pipeline at a given corpus scale. */
  def get(spark: SparkSession, scale: Double = 1.0, seed: Long = 7L): Pipeline =
    cache.synchronized {
      cache.getOrElseUpdate((spark, scale, seed), build(spark, scale, seed))
    }

  def build(spark: SparkSession, scale: Double, seed: Long): Pipeline = {
    val universe = FlavorGen.universe()
    val rows = CuisineGen.generate(universe, scale, seed)

    // The cache fixes the layout of `recipes`, and with it the row order
    // that Fig 4's category models take their templates from: over an
    // uncached frame, Catalyst pushes the aliasing filter below the
    // round-robin repartition, which then deals a different row set.
    val phrases = Pipeline.phrases(spark, universe, rows).cache()
    val recipes = Aliaser.aliasedRecipes(spark, universe, phrases).cache()

    val ingredients = FlavorTables.ingredients(spark, universe).cache()
    val profiles = FlavorTables.profiles(spark, universe).cache()
    val pairShared = FlavorTables.pairShared(spark, universe).cache()

    Pipeline(spark, scale, universe, rows, phrases, recipes,
             ingredients, profiles, pairShared)
  }

  /** (region, recipe_id, slot, phrase) for every ingredient slot of `rows`,
    * rendered by [[PhraseGen.phrase]] inside Spark tasks and dealt
    * round-robin over `defaultParallelism` partitions.
    *
    * The tasks map a `spark.range` of slot indices, cut into
    * min(slots, defaultParallelism) contiguous slices, which are the slices
    * a local relation of the same rows in corpus order would be cut into.
    * The round-robin repartition sorts each slice by row content before
    * dealing it, so every partition holds the rows, in the order, that
    * repartitioning the driver-rendered rows gives. The task closure reads
    * one broadcast of flat arrays, not `rows` or the universe.
    */
  private[pipeline] def phrases(spark: SparkSession, u: FlavorUniverse,
                                rows: Vector[RecipeRow]): DataFrame = {
    import spark.implicits._
    val corpus = spark.sparkContext.broadcast(Slots(
      rows.map(_.region).toArray, rows.map(_.recipeId).toArray,
      rows.scanLeft(0)(_ + _.ingredientIds.size).toArray,
      rows.flatMap(_.ingredientIds).toArray, Array.tabulate(u.size)(u.byId(_).name)))
    val n = corpus.value.ingIds.length
    val parallelism = spark.sparkContext.defaultParallelism
    spark.range(0, n, 1, math.max(1, math.min(n, parallelism)))
      .map(i => corpus.value.phrase(i.intValue))
      .toDF("region", "recipe_id", "slot", "phrase")
      .repartition(parallelism)
  }

  /** A corpus as flat arrays: recipe r, of region `regions(r)` and id
    * `recipeIds(r)`, holds slots `offsets(r)` until `offsets(r + 1)`; slot s
    * holds ingredient `ingIds(s)`, and ingredient i is named `names(i)`.
    */
  private final case class Slots(regions: Array[String], recipeIds: Array[Long],
                                 offsets: Array[Int], ingIds: Array[Int], names: Array[String]) {

    /** The phrase row of slot `s`, which lies in the last recipe that
      * starts at or before it; a recipe with no slot is never that one.
      */
    def phrase(s: Int): (String, Long, Int, String) = {
      var lo = 0
      var hi = recipeIds.length - 1
      while (lo < hi) {
        val mid = (lo + hi + 1) >>> 1
        if (offsets(mid) <= s) lo = mid else hi = mid - 1
      }
      val slot = s - offsets(lo)
      (regions(lo), recipeIds(lo), slot, PhraseGen.phrase(names(ingIds(s)), recipeIds(lo), slot, ingIds(s)))
    }
  }
}
