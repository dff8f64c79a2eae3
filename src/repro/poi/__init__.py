"""POI substrate: the geo-information provider, vocabularies, synthetic cities."""

from repro.poi.cities import CITY_BUILDERS, City, beijing, new_york, small_city
from repro.poi.database import POIDatabase
from repro.poi.frequency import (
    dominates,
    top_k_types,
    validate_frequency_vector,
)
from repro.poi.generator import SyntheticCityConfig, generate_city, zipf_type_counts
from repro.poi.io import load_database, save_database
from repro.poi.models import POI
from repro.poi.osm import load_osm_xml
from repro.poi.stats import CityStatistics, city_statistics, spatial_gini, type_entropy
from repro.poi.vocabulary import TypeVocabulary

__all__ = [
    "POI",
    "TypeVocabulary",
    "POIDatabase",
    "dominates",
    "top_k_types",
    "validate_frequency_vector",
    "SyntheticCityConfig",
    "generate_city",
    "zipf_type_counts",
    "City",
    "beijing",
    "new_york",
    "small_city",
    "CITY_BUILDERS",
    "save_database",
    "load_database",
    "load_osm_xml",
    "CityStatistics",
    "city_statistics",
    "type_entropy",
    "spatial_gini",
]
