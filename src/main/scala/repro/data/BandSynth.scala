package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic inputs for the band-join experiments (§6.1 "Data"),
  * down-scaled ×1/2000 in cardinality (see DESIGN.md §3). Every
  * generator is deterministic in (rows, seed) and returns a DataFrame
  * with a unique long `id` plus double join-attribute columns a1..ad.
  */
object BandSynth {

  /** Join-attribute column names for dimensionality d. */
  def dims(d: Int): Seq[String] = (1 to d).map(i => s"a$i")

  /** Pareto(z) draw on [1, ∞) via the inverse CDF (1-u)^(-1/z);
    * greater z means more skew toward 1.0 (PDF z/x^(z+1)).
    */
  private def paretoCol(z: Double, seed: Long): Column =
    pow(lit(1.0) - rand(seed), lit(-1.0 / z))

  /** pareto-z: each of the d join attributes follows an independent
    * Pareto(z). High-frequency regions of S and T coincide (both pile up
    * near 1.0), as in the paper. `quantize > 0` snaps values to a
    * lattice of that pitch — the 1D experiments need exact duplicates so
    * band width 0 (equi-join) has nonzero output.
    */
  def pareto(spark: SparkSession, rows: Long, z: Double, d: Int,
             seed: Long, quantize: Double = 0.0): DataFrame = {
    val base = spark.range(rows).withColumnRenamed("id", "id")
    val cols = (1 to d).map { i =>
      val raw = paretoCol(z, seed + i)
      val v = if (quantize > 0) round(raw / quantize) * quantize else raw
      v.as(s"a$i")
    }
    base.select(col("id") +: cols: _*)
  }

  /** rv-pareto-z: same as pareto-z but T's values are mapped to
    * `10^6 - y`, so T is skewed toward large values — high-frequency
    * S-regions are low-frequency T-regions and vice versa. Generate S
    * with `pareto` and T with this.
    */
  def rvPareto(spark: SparkSession, rows: Long, z: Double, d: Int,
               seed: Long): DataFrame = {
    val base = spark.range(rows)
    val cols = (1 to d).map(i => (lit(1e6) - paretoCol(z, seed + i)).as(s"a$i"))
    base.select(col("id") +: cols: _*)
  }

  /** Deterministic pseudo-random in [0,1) derived from a column — the
    * classic fract(sin(x)·K) hash, good enough to place cluster centers.
    */
  private def hash01(c: Column, salt: Double): Column = {
    val v = sin(c * lit(12.9898 + salt)) * lit(43758.5453)
    v - floor(v)
  }

  /** Synthetic ebird (§6.1 substitute): bird sightings clustered around
    * `hotspots` (lat, lon) centers with Gaussian spread, observation
    * time skewed seasonally over ~4000 days. Columns: a1=time[days],
    * a2=latitude, a3=longitude (time first: it is the most selective
    * dimension, matching the paper's local-join choice of A1).
    */
  def ebird(spark: SparkSession, rows: Long, seed: Long, hotspots: Int = 200): DataFrame = {
    val base = spark.range(rows)
    val h = floor(rand(seed) * hotspots)
    val clat = hash01(h, 1.0) * 140.0 - 60.0   // -60..80, bird-plausible
    val clon = hash01(h, 2.0) * 340.0 - 170.0
    val time = pow(rand(seed + 1), 0.6) * 4000.0 // skew toward recent days
    base.select(
      col("id"),
      time.as("a1"),
      greatest(lit(-90.0), least(lit(90.0), clat + randn(seed + 2) * 1.5)).as("a2"),
      greatest(lit(-180.0), least(lit(180.0), clon + randn(seed + 3) * 1.5)).as("a3"))
  }

  /** Synthetic cloud reports (§6.1 substitute): weather stations on a
    * jittered ~1° grid reporting at regular times. Same schema as ebird.
    */
  def cloud(spark: SparkSession, rows: Long, seed: Long): DataFrame = {
    val base = spark.range(rows)
    val lat = floor(rand(seed) * 150.0) - 65.0 + rand(seed + 1) * 0.2
    val lon = floor(rand(seed + 2) * 350.0) - 175.0 + rand(seed + 3) * 0.2
    val time = floor(rand(seed + 4) * 4000.0) + rand(seed + 5) * 0.5
    base.select(col("id"), time.as("a1"), lat.as("a2"), lon.as("a3"))
  }

  /** Synthetic Palomar Transient Factory detections (Appendix A.5
    * substitute): `rows` detections of ~rows/3 celestial objects, each
    * object observed repeatedly with sub-arcsecond jitter. Columns:
    * a1=ra [0,360), a2=dec [-90,90]. Two tables drawn with different
    * seeds share the same object population, so a band-join at arcsecond
    * scale finds repeat observations.
    */
  def ptf(spark: SparkSession, rows: Long, seed: Long): DataFrame = {
    val nObj = math.max(1L, rows / 3)
    val base = spark.range(rows)
    val o = floor(rand(7) * nObj) // seed fixed: object population shared across tables
    val ra = hash01(o, 3.0) * 360.0
    val dec = hash01(o, 4.0) * 170.0 - 85.0
    val jit = 1.2e-4 // ~0.43 arcsec observation scatter
    base.select(
      col("id"),
      (ra + randn(seed + 1) * jit).as("a1"),
      (dec + randn(seed + 2) * jit).as("a2"))
  }
}
